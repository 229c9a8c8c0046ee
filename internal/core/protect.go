package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"bombdroid/internal/android"
	"bombdroid/internal/apk"
	"bombdroid/internal/cfg"
	"bombdroid/internal/dex"
	"bombdroid/internal/instrument"
	"bombdroid/internal/lockbox"
	"bombdroid/internal/vm"
)

// stageAnalyze computes the static-analysis artifact (paper Fig. 1,
// step 2; Soot in the paper): the hot-method exclusion set from the
// profile stage's invocation counts (§7.1, top-10% excluded), then
// each construct candidate's CFG with loops, liveness and qualified
// conditions, in File.Methods() order. It reads only the unmodified
// input file, the profile and HotFrac, never Opts.Seed, and writes
// only artifacts.Hot and the per-method analyses, so the engine can
// satisfy it from the artifact cache without running it.
//
// Analysing the input instead of the construct clone is exact:
// construct analyses each method before editing it, and its earlier
// edits only append strings, classes and blobs or rewrite methods
// already finalized (TestStageAnalyzeMatchesConstructClone).
//
// When the profile stage ran, the analyses were started beside the
// profile VM, before the hot set was known (startAnalysis); this stage
// joins them and drops the hot methods'. Otherwise it analyses the
// non-hot methods itself. Either way the same function computes every
// analysis, and each depends on its method alone, so the two paths
// give the same slice.
func stageAnalyze(ctx context.Context, a *artifacts) error {
	a.Hot = hotMethods(a.Profile, a.Opts.HotFrac)
	var all []candidateAnalysis
	var err error
	if a.early != nil {
		all, err = a.early.wait()
	} else {
		all, err = analyzeCandidates(a.File, a.Hot, ctx.Err)
	}
	if err != nil {
		return err
	}
	for _, c := range all {
		if !a.Hot[c.name] {
			a.analyses = append(a.analyses, c.ma)
		}
	}
	return nil
}

// candidateAnalysis is one method's analysis under its full name.
type candidateAnalysis struct {
	name string
	ma   methodAnalysis
}

// analyzeCandidates analyses every non-synthetic method of f not in
// hot, in File.Methods() order, calling poll before each and stopping
// at its first error.
func analyzeCandidates(f *dex.File, hot map[string]bool, poll func() error) ([]candidateAnalysis, error) {
	var out []candidateAnalysis
	for _, m := range f.Methods() {
		name := m.FullName()
		if m.IsSynthetic() || hot[name] {
			continue
		}
		if err := poll(); err != nil {
			return nil, fmt.Errorf("core: analyze stage: %w", err)
		}
		out = append(out, candidateAnalysis{name, analyzeMethod(f, m)})
	}
	return out, nil
}

// backgroundAnalysis is analyzeCandidates running on its own goroutine
// beside the profile VM. The hot set is not known yet, so it analyses
// every non-synthetic method; stageAnalyze drops the hot ones.
type backgroundAnalysis struct {
	done chan struct{}
	all  []candidateAnalysis
	err  error
}

// testHookBackgroundPoll, when set, runs before each poll of a
// background analysis (tests only).
var testHookBackgroundPoll func()

// startAnalysis starts analysing f's construct candidates. The
// goroutine polls ctx between methods; whoever starts it must wait for
// it on every path.
func startAnalysis(ctx context.Context, f *dex.File) *backgroundAnalysis {
	b := &backgroundAnalysis{done: make(chan struct{})}
	hook := testHookBackgroundPoll
	poll := ctx.Err
	if hook != nil {
		poll = func() error {
			hook()
			return ctx.Err()
		}
	}
	go func() {
		defer close(b.done)
		b.all, b.err = analyzeCandidates(f, nil, poll)
	}()
	return b
}

// wait joins the analysis and returns its result. It is a no-op on
// nil.
func (b *backgroundAnalysis) wait() ([]candidateAnalysis, error) {
	if b == nil {
		return nil, nil
	}
	<-b.done
	return b.all, b.err
}

// methodAnalysis is one construct candidate's static analysis. It is
// shared by every run that reuses the analyze artifact, concurrent
// ones included, so construct only reads g and lv and copies qcs.
type methodAnalysis struct {
	g   *cfg.Graph
	lv  *cfg.Liveness
	qcs []cfg.QC
}

// analyzeMethod analyses m and detaches the result from f: the graph
// and QCs drop their method and file pointers, so a cached analysis
// pins no decoded input and construct binds QCs to its own clone.
func analyzeMethod(f *dex.File, m *dex.Method) methodAnalysis {
	g := cfg.Build(f, m)
	ma := methodAnalysis{g: g, lv: cfg.ComputeLiveness(g), qcs: cfg.FindQCsWithGraph(f, m, g)}
	g.Method, g.File = nil, nil
	for i := range ma.qcs {
		ma.qcs[i].Method = nil
	}
	return ma
}

// analysisBytes roughly sizes per-method analyses for cache accounting.
func analysisBytes(as []methodAnalysis) int64 {
	n := int64(0)
	for _, ma := range as {
		n += 64 + int64(len(ma.qcs))*104
		for _, b := range ma.g.Blocks {
			n += 88 + 8*int64(len(b.Succs)+len(b.Preds))
		}
		for i := range ma.lv.In {
			// Two live sets plus the graph's pc-to-block entry.
			n += 56 + 8*int64(len(ma.lv.In[i])+len(ma.lv.Out[i]))
		}
	}
	return n
}

// stageConstruct clones the input dex and plans and applies every
// bomb site (existing, artificial, bogus). All of the run's
// randomness beyond profiling derives from Opts.Seed here, in
// candidate-method order, so construction is deterministic for a
// given (input, options) pair. Cancellation is checked between
// methods and before each payload is sealed. Each candidate's
// analysis comes from stageAnalyze. Payloads are sealed on background
// workers while planning goes on, and construct waits for them before
// it returns, because stego's dex digest reads the sealed blobs.
func stageConstruct(ctx context.Context, a *artifacts) error {
	opts := a.Opts
	rng := rand.New(rand.NewSource(opts.Seed))
	out := a.File.Clone()

	res := &Result{File: out, StegoBase: a.ResourceCount}
	res.Stats.InstrBefore = out.InstrCount()

	var candidates []*dex.Method
	for _, m := range out.Methods() {
		res.Stats.Methods++
		if m.IsSynthetic() {
			continue
		}
		if a.Hot[m.FullName()] {
			res.Stats.HotExcluded++
			continue
		}
		candidates = append(candidates, m)
	}
	res.Stats.Candidates = len(candidates)
	if len(candidates) != len(a.analyses) {
		return fmt.Errorf("core: construct stage: %d candidates but %d analysed methods", len(candidates), len(a.analyses))
	}

	p := &protector{
		opts: opts, rng: rng, out: out, res: res, ko: a.Ko,
		fieldVals: a.FieldValues, iconDigest: a.IconDigest, authorDigest: a.AuthorDigest,
		seals: newSealer(ctx),
	}
	var err error
	for i, m := range candidates {
		if err = ctx.Err(); err != nil {
			err = fmt.Errorf("core: construct stage: %w", err)
			break
		}
		if a.beforeMethod != nil {
			a.beforeMethod(out, m, &a.analyses[i])
		}
		if err = p.protectMethod(m, &a.analyses[i]); err != nil {
			err = fmt.Errorf("core: instrumenting %s: %w", m.FullName(), err)
			break
		}
		p.finalized = append(p.finalized, m)
	}
	// Every path waits for the sealing workers, so none outlives the
	// stage.
	if serr := p.seals.finish(out.Blobs); err == nil && serr != nil {
		err = fmt.Errorf("core: construct stage: %w", serr)
	}
	if err != nil {
		return err
	}
	a.Out = out
	a.Result = res
	a.prot = p
	return nil
}

// stageStego hides each reserved fragment (the final classes.dex
// digest, or icon/author digests) inside innocuous cover strings. It
// continues the construct stage's RNG stream, so the staged pipeline
// emits byte-for-byte the strings the monolithic one did.
func stageStego(ctx context.Context, a *artifacts) error {
	p := a.prot
	res := a.Result
	if len(p.stegoPlan) == 0 {
		return nil
	}
	a.outDex = dex.Encode(a.Out)
	dexFrag := apk.DigestHex(a.outDex)[:stegoFragLen]
	covers := []string{
		"Loading, please wait…", "Thanks for playing!", "Settings saved",
		"Check out what's new", "Rate us on the store",
	}
	for i, want := range p.stegoPlan {
		frag := want
		if want == "dex" {
			frag = dexFrag
		}
		cover := covers[i%len(covers)]
		res.StegoStrings = append(res.StegoStrings, apk.HideInString(cover, frag, p.rng))
	}
	return nil
}

// stageValidate re-links and checks the instrumented file, then seals
// the run's stats.
func stageValidate(ctx context.Context, a *artifacts) error {
	if err := dex.ValidateLinked(a.Out); err != nil {
		return fmt.Errorf("core: protected file invalid: %w", err)
	}
	a.Result.Stats.InstrAfter = a.Out.InstrCount()
	a.Result.Stats.BlobBytes = a.Out.BlobBytes()
	return nil
}

// hotMethods returns the top frac of methods by invocation count.
func hotMethods(profile map[string]int64, frac float64) map[string]bool {
	out := map[string]bool{}
	if len(profile) == 0 || frac <= 0 {
		return out
	}
	type mc struct {
		name  string
		count int64
	}
	all := make([]mc, 0, len(profile))
	for name, c := range profile {
		all = append(all, mc{name, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].name < all[j].name
	})
	n := int(float64(len(all)) * frac)
	for i := 0; i < n; i++ {
		out[all[i].name] = true
	}
	return out
}

// protector carries per-run instrumentation state.
type protector struct {
	opts Options
	rng  *rand.Rand
	out  *dex.File
	res  *Result
	ko   string

	// From the unpack and profile stages.
	fieldVals                map[string][]dex.Value
	iconDigest, authorDigest string

	finalized []*dex.Method // fully instrumented methods (snippet targets)
	bombN     int
	// stegoPlan records, per reserved stego string, what its hidden
	// fragment must be: "dex" (final classes.dex digest, computed after
	// instrumentation), or a literal fragment (icon/author digests,
	// known upfront).
	stegoPlan []string
	// seals encrypts each payload apply queues.
	seals *sealer
}

// sealJob is one payload awaiting encryption into its reserved blob.
type sealJob struct {
	blob   int64
	plain  []byte // the encoded payload file
	key    []byte // lockbox.DeriveKey(trigger constant, salt)
	sealed []byte
	err    error
}

// sealQueueLen bounds the jobs waiting for a worker. A run queues one
// job per bomb, a few dozen per app, so construct seldom finds the
// queue full; when it does, it waits for a worker to take one.
const sealQueueLen = 64

// sealer runs lockbox.Seal on up to GOMAXPROCS goroutines while
// construct goes on planning sites. Seal is deterministic and each
// job keeps its own output, so the blobs do not depend on the worker
// count or on which worker took which job.
type sealer struct {
	ctx     context.Context
	queue   chan *sealJob
	jobs    []*sealJob
	workers int
	wg      sync.WaitGroup
}

func newSealer(ctx context.Context) *sealer {
	return &sealer{ctx: ctx, queue: make(chan *sealJob, sealQueueLen)}
}

// add queues j, first starting another worker while there are fewer
// than GOMAXPROCS, so a run starts min(GOMAXPROCS, jobs) of them.
func (s *sealer) add(j *sealJob) {
	s.jobs = append(s.jobs, j)
	if s.workers < runtime.GOMAXPROCS(0) {
		s.workers++
		s.wg.Add(1)
		go s.work()
	}
	s.queue <- j
}

// work seals queued jobs until the queue closes. Once the context is
// done it only marks the jobs left, so the queue always drains and add
// never blocks for good.
func (s *sealer) work() {
	defer s.wg.Done()
	for j := range s.queue {
		if j.err = s.ctx.Err(); j.err == nil {
			j.sealed, j.err = lockbox.Seal(j.plain, j.key)
		}
	}
}

// finish closes the queue, waits for every worker to stop, and writes
// each sealed payload into its blob slot. It returns the error of the
// first failed job in queue order.
func (s *sealer) finish(blobs [][]byte) error {
	close(s.queue)
	s.wg.Wait()
	for _, j := range s.jobs {
		if j.err != nil {
			return j.err
		}
		blobs[j.blob] = j.sealed
	}
	return nil
}

// sitePlan is one planned edit, in original pc coordinates.
type sitePlan struct {
	start, end int // end == start means pure insertion
	qc         *cfg.QC
	weave      bool
	source     BombSource
	fieldRef   string    // artificial QCs
	constVal   dex.Value // trigger constant
	strOp      dex.API
	xReg       int32
}

func (sp sitePlan) conflictRange() (int, int) {
	e := sp.end
	if e <= sp.start {
		e = sp.start + 1
	}
	return sp.start, e
}

func overlaps(a, b sitePlan) bool {
	as, ae := a.conflictRange()
	bs, be := b.conflictRange()
	return as < be && bs < ae
}

// protectMethod plans and applies all bomb sites for one method from
// its stage-analyze results. The graph and liveness are shared and
// only read; the usable QCs are this run's copies, bound to m.
func (p *protector) protectMethod(m *dex.Method, ma *methodAnalysis) error {
	g, lv := ma.g, ma.lv
	var usable []cfg.QC
	for _, q := range ma.qcs {
		if !q.InLoop {
			q.Method = m
			usable = append(usable, q)
		}
	}
	p.res.Stats.ExistingQCs += len(usable)
	p.rng.Shuffle(len(usable), func(i, j int) { usable[i], usable[j] = usable[j], usable[i] })

	var plans []sitePlan
	conflict := func(cand sitePlan) bool {
		for _, pl := range plans {
			if overlaps(pl, cand) {
				return true
			}
		}
		return false
	}

	// Real bombs from existing QCs: ExistingFrac is the per-method
	// probability of hosting one (and occasionally a second, up to
	// MaxBombsPerMethod).
	quota := 0
	if p.rng.Float64() < p.opts.ExistingFrac {
		quota = 1
		if p.opts.MaxBombsPerMethod > 1 && p.rng.Float64() < p.opts.ExistingFrac/3 {
			quota = p.opts.MaxBombsPerMethod
		}
	}
	for i := range usable {
		if quota == 0 || (p.opts.MaxBombs > 0 && p.bombN >= p.opts.MaxBombs) {
			break
		}
		q := &usable[i]
		plan, ok := p.planForQC(g, lv, m, q, SourceExisting)
		if !ok || conflict(plan) {
			continue
		}
		plans = append(plans, plan)
		quota--
		p.bombN++
	}

	// Bogus bombs from leftover weavable QCs.
	if p.opts.BogusFrac > 0 {
		for i := range usable {
			q := &usable[i]
			if q.Kind == cfg.Weak || !q.HasThenRegion() {
				continue
			}
			if p.rng.Float64() >= p.opts.BogusFrac {
				continue
			}
			plan, ok := p.planForQC(g, lv, m, q, SourceBogus)
			if !ok || !plan.weave || conflict(plan) {
				continue
			}
			plans = append(plans, plan)
		}
	}

	// Artificial QC for α of candidate methods.
	if p.rng.Float64() < p.opts.Alpha && (p.opts.MaxBombs == 0 || p.bombN < p.opts.MaxBombs) {
		if plan, ok := p.planArtificial(g, m, conflict); ok {
			plans = append(plans, plan)
			p.bombN++
		}
	}

	if len(plans) == 0 {
		return nil
	}

	base := int32(m.NumRegs)
	m.NumRegs += siteRegs

	sort.Slice(plans, func(i, j int) bool { return plans[i].start > plans[j].start })
	for _, plan := range plans {
		if err := p.apply(m, plan, base); err != nil {
			return err
		}
	}
	return nil
}

// planForQC decides how to bomb one qualified condition.
func (p *protector) planForQC(g *cfg.Graph, lv *cfg.Liveness, m *dex.Method, q *cfg.QC, source BombSource) (sitePlan, bool) {
	plan := sitePlan{
		qc: q, source: source, constVal: q.Const, strOp: q.StrOp, xReg: q.Reg,
	}
	weavable := !p.opts.NoWeave &&
		q.Kind != cfg.Weak && // zero-tests may guard non-integer falsy values
		q.HasThenRegion() &&
		cfg.Liftable(g, lv, q) &&
		spliceable(m, q.CondPC, q.ThenEnd) &&
		// Registers defined by the replaced comparison prologue
		// (e.g. a string-equals result) must be dead at the join.
		!prologueDefsLive(m, lv, q.CondPC, q.ThenStart, q.ThenEnd)
	if weavable && (q.StrOp == dex.APIStrStartsWith || q.StrOp == dex.APIStrEndsWith) &&
		regionReadsReg(m, q.ThenStart, q.ThenEnd, q.Reg) {
		// The payload receives the extracted prefix/suffix, not the
		// original string; regions reading ϕ cannot be moved.
		weavable = false
	}
	if source == SourceBogus && !weavable {
		return plan, false
	}
	if weavable {
		plan.weave = true
		plan.start, plan.end = q.CondPC, q.ThenEnd
	} else {
		plan.start, plan.end = q.CondPC, q.CondPC
	}
	return plan, true
}

// planArtificial inserts an artificial qualified condition (paper
// §3.3, §7.2): pick a high-entropy field observed during profiling,
// a constant from its observed values, and a non-loop location.
func (p *protector) planArtificial(g *cfg.Graph, m *dex.Method, conflict func(sitePlan) bool) (sitePlan, bool) {
	ref, val, ok := p.pickArtificialField()
	if !ok {
		return sitePlan{}, false
	}
	// Candidate locations: block starts outside loops.
	var locs []int
	for _, b := range g.Blocks {
		if !g.InLoop(b.Start) {
			locs = append(locs, b.Start)
		}
	}
	if len(locs) == 0 {
		return sitePlan{}, false
	}
	p.rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
	for _, loc := range locs {
		plan := sitePlan{
			start: loc, end: loc, source: SourceArtificial,
			fieldRef: ref, constVal: val,
		}
		if !conflict(plan) {
			return plan, true
		}
	}
	return sitePlan{}, false
}

// pickArtificialField chooses the field with the most observed unique
// values ("fields that have the largest numbers of unique values are
// considered to have higher entropies", §7.2).
func (p *protector) pickArtificialField() (string, dex.Value, bool) {
	type fv struct {
		ref  string
		vals []dex.Value
	}
	var best []fv
	if len(p.fieldVals) > 0 {
		all := make([]fv, 0, len(p.fieldVals))
		for ref, vals := range p.fieldVals {
			if len(vals) == 0 {
				continue
			}
			if k := vals[0].Kind; k != dex.KindInt && k != dex.KindStr {
				continue
			}
			all = append(all, fv{ref, vals})
		}
		sort.Slice(all, func(i, j int) bool {
			if len(all[i].vals) != len(all[j].vals) {
				return len(all[i].vals) > len(all[j].vals)
			}
			return all[i].ref < all[j].ref
		})
		// A quarter of the time, restrict to string fields: string
		// constants give strong (brute-force-resistant) artificial
		// triggers even when the value set is small (Fig. 4b shows a
		// medium/strong mix).
		if p.rng.Intn(4) == 0 {
			var strs []fv
			for _, f := range all {
				if f.vals[0].Kind == dex.KindStr {
					strs = append(strs, f)
				}
			}
			if len(strs) > 0 {
				all = strs
			}
		}
		// Keep the top quartile as the entropy pool.
		n := len(all)/4 + 1
		if n > len(all) {
			n = len(all)
		}
		best = all[:n]
	} else {
		// No profiling data: fall back to declared fields and their
		// initial values (weak entropy, still functional).
		for _, c := range p.out.Classes {
			for _, fd := range c.Fields {
				if fd.Init.Kind == dex.KindInt || fd.Init.Kind == dex.KindStr {
					best = append(best, fv{c.Name + "." + fd.Name, []dex.Value{fd.Init}})
				}
			}
		}
	}
	if len(best) == 0 {
		return "", dex.Value{}, false
	}
	chosen := best[p.rng.Intn(len(best))]
	return chosen.ref, chosen.vals[p.rng.Intn(len(chosen.vals))], true
}

// apply builds and splices one planned site and queues its payload
// for sealing. The blob slot is reserved now, so blob indices follow
// apply order whatever order the payloads are sealed in.
func (p *protector) apply(m *dex.Method, plan sitePlan, base int32) error {
	id := fmt.Sprintf("Bomb%d", len(p.res.Bombs))
	salt := saltFor(p.rng, len(p.res.Bombs))
	if p.opts.GlobalSalt != "" {
		salt = p.opts.GlobalSalt
	}

	spec := payloadSpec{id: id, bogus: plan.source == SourceBogus}
	bomb := Bomb{
		ID: id, Method: m.FullName(), Source: plan.source,
		Const: plan.constVal, Salt: salt, Woven: plan.weave,
	}
	switch {
	case plan.source == SourceArtificial:
		if plan.constVal.Kind == dex.KindStr {
			bomb.Strength = cfg.Strong
		} else {
			bomb.Strength = cfg.Medium
		}
	case plan.qc != nil:
		bomb.Strength = plan.qc.Kind
	}

	if plan.source != SourceBogus {
		spec.mute = p.opts.MuteAfterFirst
		if !p.opts.SingleTrigger {
			spec.inner = android.BuildInnerCond(p.rng, p.opts.PLo, p.opts.PHi)
		}
		spec.detect = p.chooseDetection()
		spec.response = pick(p.rng, p.opts.Responses)
		spec.delayMs = p.opts.DelayResponseMs
		spec.ko = p.ko
		if spec.detect == DetectDigest {
			spec.stegoResIdx = int64(p.res.StegoBase + len(p.stegoPlan))
			p.stegoPlan = append(p.stegoPlan, "dex")
		}
		if spec.detect == DetectIcon {
			spec.stegoResIdx = int64(p.res.StegoBase + len(p.stegoPlan))
			if p.rng.Intn(2) == 0 && len(p.authorDigest) >= stegoFragLen {
				spec.digestEntry = apk.EntryAuthor
				p.stegoPlan = append(p.stegoPlan, p.authorDigest[:stegoFragLen])
			} else {
				spec.digestEntry = apk.EntryIcon
				p.stegoPlan = append(p.stegoPlan, p.iconDigest[:stegoFragLen])
			}
		}
		if spec.detect == DetectSnippet {
			t := p.finalized[p.rng.Intn(len(p.finalized))]
			spec.snippetRef = t.FullName()
			spec.snippetDigest = vm.CodeDigest(p.out, t)
		}
		bomb.Inner = spec.inner
		bomb.Detect = spec.detect
		bomb.Response = spec.response
	}

	if plan.weave {
		spec.weaveFrom = p.out
		spec.weaveMethod = m
		spec.weaveStart = plan.qc.ThenStart
		spec.weaveEnd = plan.qc.ThenEnd
		spec.weaveArgReg = plan.qc.Reg
	}

	pf, err := buildPayload(spec)
	if err != nil {
		return err
	}
	bomb.BlobIdx = p.out.AddBlob(nil)
	p.seals.add(&sealJob{
		blob: bomb.BlobIdx, plain: dex.Encode(pf), key: lockbox.DeriveKey(plan.constVal, salt),
	})

	seq := outerTriggerSeq(p.out, triggerSpec{
		xReg: plan.xReg, c: plan.constVal, salt: salt,
		blobIdx: bomb.BlobIdx, strOp: plan.strOp, fieldRef: plan.fieldRef,
	}, base)
	if err := instrument.Splice(m, plan.start, plan.end, seq); err != nil {
		return err
	}

	p.res.Bombs = append(p.res.Bombs, bomb)
	switch plan.source {
	case SourceExisting:
		p.res.Stats.BombsExisting++
	case SourceArtificial:
		p.res.Stats.BombsArtificial++
	case SourceBogus:
		p.res.Stats.BombsBogus++
	}
	if plan.weave {
		p.res.Stats.Woven++
	}
	return nil
}

// chooseDetection rotates among configured methods, falling back to
// public key when a method's prerequisites are unmet.
func (p *protector) chooseDetection() DetectionMethod {
	d := pick(p.rng, p.opts.Detections)
	if d == DetectSnippet && len(p.finalized) == 0 {
		return DetectPublicKey
	}
	if d == DetectIcon && len(p.iconDigest) < stegoFragLen {
		return DetectPublicKey
	}
	return d
}

// spliceable mirrors instrument.Splice's interior-target check so a
// failing site degrades to insertion instead of aborting protection.
func spliceable(m *dex.Method, s, e int) bool {
	if e <= s {
		return true
	}
	check := func(t int32) bool { return int(t) <= s || int(t) >= e }
	for pc, in := range m.Code {
		if pc >= s && pc < e {
			continue
		}
		if in.Op.IsBranch() && !check(in.C) {
			return false
		}
	}
	for _, t := range m.Tables {
		if !check(t.Default) {
			return false
		}
		for _, c := range t.Cases {
			if !check(c.Target) {
				return false
			}
		}
	}
	return true
}

// prologueDefsLive reports whether any register defined in the
// comparison prologue [s, thenStart) is live at the join (end).
func prologueDefsLive(m *dex.Method, lv *cfg.Liveness, s, thenStart, end int) bool {
	if end >= len(lv.In) {
		return false
	}
	for pc := s; pc < thenStart && pc < len(m.Code); pc++ {
		_, defs := cfg.UsesDefs(m.Code[pc])
		for _, d := range defs {
			if lv.In[end].Has(d) {
				return true
			}
		}
	}
	return false
}

// regionReadsReg reports whether [s,e) reads reg before writing it.
func regionReadsReg(m *dex.Method, s, e int, reg int32) bool {
	written := false
	for pc := s; pc < e && !written; pc++ {
		uses, defs := cfg.UsesDefs(m.Code[pc])
		for _, u := range uses {
			if u == reg {
				return true
			}
		}
		for _, d := range defs {
			if d == reg {
				written = true
			}
		}
	}
	return false
}
