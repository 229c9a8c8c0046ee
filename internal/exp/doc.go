// Package exp regenerates every table and figure in the paper's
// evaluation (§8): Table 1 (corpus statics), Table 2 (injected
// bombs), Table 3 (time to first trigger), Table 4 (fuzzer outer-
// trigger coverage), Table 5 (execution overhead), Figure 3 (program-
// variable entropy), Figure 4 (trigger strength), Figure 5 (bombs
// triggered by Dynodroid over an hour) — plus the §8.3.2 human-
// analyst study, the §8.4 false-positive and code-size measurements,
// and a resilience matrix pitting every §2.1 attack against naive
// bombs, SSN, and BombDroid. cmd/report drives these entry points;
// Scale shrinks workloads for quick runs.
//
// # API convention: ctx-first
//
// Every experiment has exactly one entry point, and it takes a
// context.Context as its first parameter: Table3(ctx, sc),
// Figure5(ctx, sc), Ablations(ctx, seed), ResilienceMatrix(ctx, seed),
// and so on. Cancellation is checked between work items (and between
// stages for the staged runners), so a fired context stops the run at
// the next boundary and returns ctx.Err(). There are no context-free
// wrappers; callers without a context pass context.Background(). New
// experiments follow the same shape.
//
// Scale defaulting follows the same single-owner rule: the pool
// helpers (mapApps, ForIndexed) resolve Scale defaults exactly once
// and hand the resolved Scale to the experiment body, so individual
// experiments never call withDefaults themselves.
package exp
