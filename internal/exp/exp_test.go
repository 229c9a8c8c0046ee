package exp

import (
	"context"
	"strings"
	"testing"
)

// tiny returns a minimal-cost scale for unit tests.
func tiny() Scale {
	return Scale{
		AppsPerCategory: 1,
		SessionsPerApp:  4,
		SessionCapMin:   10,
		FuzzMinutes:     4,
		OverheadEvents:  800,
		OverheadRuns:    1,
		ProfileEvents:   1_200,
		AnalystHours:    1,
		FPHours:         1,
		Apps:            []string{"AndroFish", "Hash Droid"},
	}
}

func TestPrepareCachesAndPipelines(t *testing.T) {
	p1, err := PrepareCtx(context.Background(), "AndroFish", 1200)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PrepareCtx(context.Background(), "AndroFish", 1200)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("Prepare should cache")
	}
	if len(p1.Result.Bombs) == 0 {
		t.Fatal("no bombs injected")
	}
	if p1.Protected.PublicKeyHex() != p1.Original.PublicKeyHex() {
		t.Error("protected app must keep the developer key")
	}
	if p1.Pirated.PublicKeyHex() == p1.Original.PublicKeyHex() {
		t.Error("pirated app must have a different key")
	}
	if len(p1.Profile) == 0 {
		t.Error("profiling produced nothing")
	}
	if p1.Result.Stats.HotExcluded == 0 {
		t.Error("hot methods should be excluded with a profile present")
	}
}

func TestTable1ShapesMatchPaper(t *testing.T) {
	rows, err := Table1(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 categories", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Apps
		if r.AvgLOC <= 0 || r.AvgCandidate <= 0 || r.AvgQCs <= 0 || r.AvgEnvVars <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Category, r)
		}
	}
	if total != 963 {
		t.Errorf("corpus size = %d, want 963", total)
	}
	// Shape: Development (largest LOC) > Game (smallest).
	var game, dev Table1Row
	for _, r := range rows {
		if r.Category == "Game" {
			game = r
		}
		if r.Category == "Development" {
			dev = r
		}
	}
	if dev.AvgLOC <= game.AvgLOC {
		t.Errorf("Development LOC (%d) should exceed Game (%d)", dev.AvgLOC, game.AvgLOC)
	}
	if dev.AvgCandidate <= game.AvgCandidate {
		t.Error("larger apps should have more candidate methods")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Game") || !strings.Contains(out, "Development") {
		t.Error("formatting lost categories")
	}
}

func TestTable2InjectionCounts(t *testing.T) {
	rows, err := Table2(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Bombs != r.Existing+r.Artificial {
			t.Errorf("%s: bombs %d != existing %d + artificial %d", r.App, r.Bombs, r.Existing, r.Artificial)
		}
		if r.Existing == 0 || r.Artificial == 0 {
			t.Errorf("%s: missing bomb source: %+v", r.App, r)
		}
	}
	if FormatTable2(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestTable3FirstTriggerTimes(t *testing.T) {
	rows, err := Table3(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Success == 0 {
			t.Errorf("%s: no session triggered (paper: 50/50)", r.App)
			continue
		}
		if r.MinSec < 2 {
			t.Errorf("%s: min %.1fs below app launch floor", r.App, r.MinSec)
		}
		if r.MinSec > r.AvgSec || r.AvgSec > r.MaxSec {
			t.Errorf("%s: ordering broken min=%.0f avg=%.0f max=%.0f", r.App, r.MinSec, r.AvgSec, r.MaxSec)
		}
	}
	if FormatTable3(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestTable4FuzzerOrdering(t *testing.T) {
	rows, err := Table4(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	var mSum, dSum float64
	for _, r := range rows {
		mSum += r.Monkey
		dSum += r.Dynodroid
		for _, v := range []float64{r.Monkey, r.PUMA, r.Hooker, r.Dynodroid} {
			if v < 0 || v > 100 {
				t.Errorf("%s: percentage %v out of range", r.App, v)
			}
		}
	}
	if dSum < mSum {
		t.Errorf("Dynodroid total (%.1f) below Monkey (%.1f) — paper ordering broken", dSum, mSum)
	}
	if dSum == 0 {
		t.Error("Dynodroid satisfied nothing")
	}
	if FormatTable4(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestTable5OverheadSmall(t *testing.T) {
	rows, err := Table5(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OverheadPct < -2 {
			t.Errorf("%s: negative overhead %.1f%%", r.App, r.OverheadPct)
		}
		if r.OverheadPct > 25 {
			t.Errorf("%s: overhead %.1f%% way above the paper's ~2.6%%", r.App, r.OverheadPct)
		}
		if r.SizePct <= 0 || r.SizePct > 60 {
			t.Errorf("%s: size increase %.1f%% implausible", r.App, r.SizePct)
		}
	}
	if FormatTable5(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestFigure3EntropyOrdering(t *testing.T) {
	series, err := Figure3(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	uniq := map[string]int{}
	for _, s := range series {
		uniq[s.Var] = s.Unique
		if len(s.Samples) < 4 {
			t.Errorf("%s: too few samples", s.Var)
		}
	}
	if uniq["App.posX"] <= uniq["App.dir"] {
		t.Errorf("posX unique (%d) should exceed dir (%d)", uniq["App.posX"], uniq["App.dir"])
	}
	if out := FormatFigure3(series); !strings.Contains(out, "posX") {
		t.Error("formatting lost variables")
	}
}

func TestFigure4StrengthMix(t *testing.T) {
	rows, err := Figure4(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ExistWeak+r.ExistMedium+r.ExistStrong == 0 {
			t.Errorf("%s: no existing bombs", r.App)
		}
		// Paper Figure 4b: artificial QCs are medium-to-strong only.
		if r.ArtMedium+r.ArtStrong == 0 {
			t.Errorf("%s: no artificial bombs", r.App)
		}
	}
	if FormatFigure4(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestFigure5PlateausLow(t *testing.T) {
	series, err := Figure5(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.PctByMin) == 0 {
			t.Fatalf("%s: empty series", s.App)
		}
		// Monotone non-decreasing.
		for i := 1; i < len(s.PctByMin); i++ {
			if s.PctByMin[i] < s.PctByMin[i-1] {
				t.Errorf("%s: series decreased", s.App)
			}
		}
		// The paper's headline: the vast majority stays dormant.
		if s.FinalPct > 40 {
			t.Errorf("%s: %.1f%% triggered — far beyond the paper's ≤6.4%%", s.App, s.FinalPct)
		}
	}
	if FormatFigure5(series) == "" {
		t.Error("empty formatting")
	}
}

func TestFalsePositivesZero(t *testing.T) {
	rows, err := FalsePositives(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Responses != 0 {
			t.Errorf("%s: %d false positives", r.App, r.Responses)
		}
	}
	if FormatFPResults(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestCodeSizeBand(t *testing.T) {
	rows, avg, err := CodeSize(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	if avg <= 0 {
		t.Errorf("avg size increase %.1f%%", avg)
	}
	if FormatSizeRows(rows, avg) == "" {
		t.Error("empty formatting")
	}
}

func TestHumanAnalystMinority(t *testing.T) {
	rows, err := HumanAnalystStudy(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Pct > 50 {
			t.Errorf("%s: analyst triggered %.1f%%", r.App, r.Pct)
		}
	}
	if FormatAnalystRows(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestResilienceMatrixVerdicts(t *testing.T) {
	rows, err := ResilienceMatrix(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 8 {
		t.Fatalf("matrix too small: %d rows", len(rows))
	}
	byCell := map[string]bool{}
	for _, r := range rows {
		byCell[r.Attack+"|"+r.Protection] = r.Defeated
	}
	mustDefeat := [][2]string{
		{"text search", "naive"},
		{"symbolic execution", "naive"},
		{"symbolic execution", "ssn"},
		{"forced execution", "naive"},
		{"instrumentation (rand→0)", "ssn"},
	}
	for _, c := range mustDefeat {
		if !byCell[c[0]+"|"+c[1]] {
			t.Errorf("%s should defeat %s", c[0], c[1])
		}
	}
	mustResist := [][2]string{
		{"text search", "bombdroid"},
		{"symbolic execution", "bombdroid"},
		{"forced execution", "bombdroid"},
		{"slicing+execution", "bombdroid"},
	}
	for _, c := range mustResist {
		if byCell[c[0]+"|"+c[1]] {
			t.Errorf("bombdroid should resist %s", c[0])
		}
	}
	if FormatMatrix(rows) == "" {
		t.Error("empty formatting")
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable("T", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Errorf("bad render:\n%s", out)
	}
	if spark(nil) != "" {
		t.Error("empty spark should be empty")
	}
	if spark([]int64{1, 5, 9}) == "" {
		t.Error("spark lost data")
	}
	if spark([]int64{3, 3, 3}) == "" {
		t.Error("constant spark should render")
	}
}
