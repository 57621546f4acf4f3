package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"vrldram/internal/exp"
	"vrldram/internal/sim"
)

// suiteChildArg makes the binary run one cold suite op instead of the
// benchmark: a fresh process, so the trace cache, profile cache and MPRSF
// memo start empty exactly as they do for `vrlexp -exp all`.
const suiteChildArg = "__suite-child"

// suiteOutput is what a suite child hands back to the benchmark.
type suiteOutput struct {
	BaseUnixNano int64         `json:"base_unix_ns"`
	Results      []*exp.Result `json:"results"`
	Spans        []span        `json:"spans,omitempty"`
}

// runSuiteCampaign runs every registered experiment at the default
// configuration and the given seed, one exp.RunCampaign call per
// experiment so each gets its own span.
func runSuiteCampaign(ctx context.Context, seed int64, backend sim.Backend, tr *tracer, parent, op int) ([]*exp.Result, error) {
	cfg := exp.Default()
	cfg.Seed = seed
	cfg.Backend = backend
	cfg.Workers = runtime.NumCPU()
	var all []*exp.Result
	for _, id := range exp.IDs() {
		sp := tr.begin("exp."+id, parent, op)
		res, err := exp.RunCampaign(ctx, cfg, exp.CampaignOptions{IDs: []string{id}})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		all = append(all, res...)
	}
	return all, nil
}

// suiteChild is the entry point of a cold suite process. With -list it
// prints the registry instead, which is how set-up checks the child binary.
func suiteChild(args []string) int {
	fs := flag.NewFlagSet(suiteChildArg, flag.ContinueOnError)
	list := fs.Bool("list", false, "print the experiment IDs and exit")
	seed := fs.Int64("seed", 42, "experiment seed")
	out := fs.String("out", "", "file to write the results to")
	traced := fs.Bool("trace", false, "record a span per experiment")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Println(strings.Join(exp.IDs(), "\n"))
		return 0
	}
	var tr *tracer
	if *traced {
		tr = newTracer()
	}
	base := time.Now()
	if tr != nil {
		base = tr.base
	}
	results, err := runSuiteCampaign(context.Background(), *seed, sim.BackendAuto, tr, 0, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench suite child: %v\n", err)
		return 1
	}
	o := suiteOutput{BaseUnixNano: base.UnixNano(), Results: results}
	if tr != nil {
		o.Spans = tr.snapshot()
	}
	data, err := json.Marshal(o)
	if err == nil {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench suite child: %v\n", err)
		return 1
	}
	return 0
}

// suiteDigest fingerprints a suite's output: every experiment's ID, title,
// headers, rows and notes, except cells in columns whose header ends in
// " time" - Table 1's wall-clock columns, the only host-dependent output.
func suiteDigest(results []*exp.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%q %q %q\n", r.ID, r.Title, r.Headers)
		for _, row := range r.Rows {
			cells := append([]string(nil), row...)
			for i := range cells {
				if i < len(r.Headers) && strings.HasSuffix(r.Headers[i], " time") {
					cells[i] = "*"
				}
			}
			fmt.Fprintf(h, "%q\n", cells)
		}
		fmt.Fprintf(h, "%q\n", r.Notes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// suiteFailed reports whether any experiment recorded a failure or the
// suite is missing experiments.
func suiteFailed(results []*exp.Result) bool {
	for _, r := range results {
		if r.Failed() {
			return true
		}
	}
	return len(results) != len(exp.Registry)
}

// probeChild starts the child binary once and checks that it lists the
// same registry this binary was built with.
func probeChild(ctx context.Context, c *config) error {
	out, err := exec.CommandContext(ctx, c.exe, suiteChildArg, "-list").Output()
	if err != nil {
		return fmt.Errorf("suite child probe: %w", err)
	}
	if got := strings.Fields(string(out)); !slices.Equal(got, exp.IDs()) {
		return fmt.Errorf("suite child lists %d experiments, want %d", len(got), len(exp.Registry))
	}
	return nil
}

// suiteOp runs one cold suite in a child process and returns its output
// and the child's peak resident set in MiB.
func suiteOp(ctx context.Context, c *config, tr *tracer, i int) (*suiteOutput, float64, error) {
	path := filepath.Join(c.workDir, fmt.Sprintf("suite-%d.json", i))
	defer os.Remove(path)
	args := []string{suiteChildArg, "-seed", fmt.Sprint(c.seed), "-out", path}
	if tr != nil {
		args = append(args, "-trace")
	}
	cmd := exec.CommandContext(ctx, c.exe, args...)
	cmd.Stderr = os.Stderr
	id := tr.begin("suite.process", 0, i)
	err := cmd.Run()
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("suite child: %w", err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, rss, err
	}
	var o suiteOutput
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, rss, fmt.Errorf("suite child output: %w", err)
	}
	tr.adopt(o.Spans, o.BaseUnixNano, id, i)
	return &o, rss, nil
}

func runSuite(ctx context.Context, c *config) (*outcome, error) {
	_, setupSecs, err := repeatSetup(setupReps, func(int) (struct{}, error) { return struct{}{}, probeChild(ctx, c) }, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	var digests []string
	var rss []float64
	smp, err := loop(c.budget, 1, wallClock, c.tr, nil, func(i int, tr *tracer) {
		o, peak, err := suiteOp(ctx, c, tr, i)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: suite op %d: %v\n", i, err)
			digests = append(digests, "error")
		case suiteFailed(o.Results):
			digests = append(digests, "failed")
		default:
			digests = append(digests, suiteDigest(o.Results))
		}
		if peak > 0 {
			rss = append(rss, peak)
		}
	})
	if err != nil {
		return nil, err
	}

	// Oracle: the same suite on the scalar reference backend, in process.
	op := oracleOp(0)
	id := c.tr.begin("oracle", 0, op)
	ref, err := runSuiteCampaign(ctx, c.seed, sim.BackendScalar, c.tr, id, op)
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("suite oracle: %w", err)
	}
	refDigest := suiteDigest(ref)
	if suiteFailed(ref) {
		refDigest = "oracle failed"
	}

	out := &outcome{attempted: len(digests), info: map[string]any{}}
	for _, d := range digests {
		if d != refDigest {
			out.failed++
		}
	}
	commonFigures(out, setupSecs, smp.ms, 1, medianOrZero(rss), 0)
	out.figures.set("suite_s", out.e2e["run_ms"].Value/1e3, "s")
	out.info["op_clock"] = "wall time"
	out.info["experiments"] = len(exp.Registry)
	out.info["workers"] = runtime.NumCPU()
	out.info["suite_digest"] = refDigest

	if c.tr != nil {
		out.layers = metrics{}
		suiteLayers(out, c.tr.snapshot())
		overhead(out, smp.ms, smp.traced, 1)
	}
	return out, nil
}

// suiteLayers reports each timed experiment's median self time over the
// traced ops, and the ten short experiments together as exp.rest_ms.
func suiteLayers(out *outcome, spans []span) {
	self := selfByOp(spans)
	isOp := func(op int) bool { return op >= 0 }
	rest := map[int]float64{}
	for _, id := range exp.IDs() {
		byOp := self["exp."+id]
		if slices.Contains(suiteExperiments, id) {
			out.layers.set("exp."+id+"_ms", medianOrZero(values(byOp, isOp)), "ms")
			continue
		}
		for op, v := range byOp {
			if isOp(op) {
				rest[op] += v
			}
		}
	}
	out.layers.set("exp.rest_ms", medianOrZero(values(rest, isOp)), "ms")
}
