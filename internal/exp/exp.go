// Package exp is the experiment harness: one function per table and figure
// of the paper, each returning a structured Result whose rows regenerate the
// published artifact. The cmd/vrlexp binary and the repository's benchmark
// suite are thin wrappers around this package.
package exp

import (
	"fmt"
	"io"
	"strings"

	"vrldram/internal/device"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
)

// Config carries the shared experiment knobs; the zero value plus Default()
// reproduces the paper's setup.
type Config struct {
	Params   device.Params
	Geom     device.BankGeometry
	Dist     retention.CellDistribution
	Seed     int64
	Duration float64 // trace/refresh simulation window (s)

	// Backend selects the simulator runner for every experiment that runs
	// the refresh simulator. The zero value (sim.BackendAuto) picks the
	// fastest exact runner; every backend gives bit-identical results.
	Backend sim.Backend

	// Workers bounds the number of concurrent cells an experiment may
	// evaluate. 0 (the default) means runtime.GOMAXPROCS(0); 1 forces the
	// historical sequential behavior. Results are identical for every
	// Workers value: cells are independent and reassembled in submission
	// order (see forEachCell).
	Workers int
}

// Default returns the paper's evaluation configuration: the 90 nm device,
// the 8192x32 bank, the calibrated retention distribution, and a 768 ms
// simulation window (the hyperperiod of the four RAIDR bins).
func Default() Config {
	return Config{
		Params:   device.Default90nm(),
		Geom:     device.PaperBank,
		Dist:     retention.DefaultCellDistribution(),
		Seed:     42,
		Duration: 0.768,
	}
}

// Validate reports the first unusable field.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Geom.Validate(); err != nil {
		return err
	}
	if err := c.Dist.Validate(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("exp: duration must be positive, got %g", c.Duration)
	}
	return nil
}

// Result is a rendered experiment: a titled table plus free-form notes
// (assumptions, paper-vs-measured summaries).
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a note line.
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the result as an aligned text table.
func (r *Result) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			wd := len(c)
			if i < len(widths) {
				wd = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", wd, c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if len(r.Headers) > 0 {
		if _, err := fmt.Fprintln(w, line(r.Headers)); err != nil {
			return err
		}
		total := 0
		for _, wd := range widths {
			total += wd + 2
		}
		if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
			return err
		}
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FprintCSV renders the result as CSV (headers, then rows); notes become
// trailing comment lines.
func (r *Result) FprintCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(r.Headers); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Runner is an experiment entry point.
type Runner func(Config) (*Result, error)

// Registry maps experiment IDs to their runners, in the paper's order.
var Registry = []struct {
	ID    string
	Title string
	Run   Runner
}{
	{"fig1a", "Charge restoration vs fraction of tRFC (Observation 1)", Figure1a},
	{"fig1b", "Full vs partial refresh over three refresh periods (Observation 2)", Figure1b},
	{"fig3a", "DRAM retention time distribution", Figure3a},
	{"fig3b", "Refresh-period binning of rows (RAIDR)", Figure3b},
	{"fig4", "Refresh performance overhead with real traces", Figure4},
	{"fig5", "Voltage response during equalization", Figure5},
	{"tab1", "Analytical model accuracy and speed vs SPICE", Table1},
	{"tab2", "Area overhead of VRL-DRAM at 90nm", Table2},
	{"power", "Refresh power: VRL vs RAIDR (Section 4.1)", PowerComparison},
	{"sec31", "tau_partial trade-off sweep (Section 3.1)", TauPartialSweep},
	{"perf", "End-performance impact via the command-level controller (extension)", PerfImpact},
	{"abl-guardband", "Ablation: charge guardband vs overhead and safety", GuardbandSweep},
	{"abl-nbits", "Ablation: counter width vs overhead and area", NBitsSweep},
	{"abl-decay", "Ablation: leakage law vs MPRSF assignment", DecaySweep},
	{"abl-vrt", "Ablation: variable retention time and AVATAR-style mitigation", VRTImpact},
	{"abl-temp", "Ablation: operating temperature vs safety and overhead", TemperatureSweep},
	{"abl-density", "Ablation: refresh overhead vs bank density", DensitySweep},
	{"abl-rank", "Ablation: per-bank vs all-bank refresh commands across a rank", RankSweep},
	{"abl-elastic", "Ablation: elastic refresh under a saturating burst", ElasticSweep},
	{"abl-rankperf", "Ablation: request latency vs refresh command granularity", RankPerfSweep},
	{"abl-margin", "Ablation: worst-case sense signal by data pattern", SenseMarginSweep},
	{"abl-salp", "Ablation: subarray-level parallelism x refresh policy", SALPSweep},
	{"abl-coverage", "Ablation: trace row coverage vs VRL-Access benefit", CoverageSweep},
	{"resilience", "Fault injection vs policy: guarded and unguarded violation/overhead frontier", Resilience},
	{"scrub", "Online ECC patrol scrub and self-healing repair vs fault injection", Scrub},
	{"profiling", "Profiling-mechanism survival under composite-stress scenarios", Profiling},
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q", id)
}

// IDs lists the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}
