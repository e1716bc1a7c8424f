package exp

// Serializable cell specifications. CellSpec is the one form a sweep cell
// takes: a closed, wire-encodable record of the architecture, consistency
// model, window and named knobs. Every sweep is built from specs — the
// figure matrices, the window sweeps, the ablations and the analyze and
// timeline matrices — so the in-process and distributed matrices cannot
// drift apart: a coordinator shipping Figure3Specs() to remote workers
// replays exactly the cells Figure3All runs locally, and the merged results
// are byte-identical.

import (
	"fmt"
	"sort"

	"dynsched/internal/bpred"
	"dynsched/internal/consistency"
	"dynsched/internal/cpu"
	"dynsched/internal/trace"
)

// CellSpec names one replay cell of a figure or sweep in closed form: the
// architecture, consistency model, window, and the handful of named knobs
// the paper's experiments and ablations use. The zero value of each knob
// means "leave the default", so a spec round-trips through JSON without
// loss.
type CellSpec struct {
	Label          string `json:"label"`
	Arch           string `json:"arch"`  // "BASE", "SSBR", "SS", "DS"
	Model          string `json:"model"` // "SC", "PC", "WO", "RC"
	Window         int    `json:"window,omitempty"`
	IssueWidth     int    `json:"issue_width,omitempty"`
	Prefetch       bool   `json:"prefetch,omitempty"`
	PerfectBP      bool   `json:"perfect_bp,omitempty"`
	IgnoreDataDeps bool   `json:"ignore_data_deps,omitempty"`
	StoreBufDepth  int    `json:"store_buf_depth,omitempty"`
	MSHRs          int    `json:"mshrs,omitempty"`       // 0 = unlimited
	BTBEntries     int    `json:"btb_entries,omitempty"` // 4-way; 0 = the paper's BTB
}

// maxBTBEntries bounds a spec's BTB so a wire value cannot make a worker
// allocate an arbitrarily large table.
const maxBTBEntries = 1 << 20

// Validate rejects specs that could not have come from a spec constructor —
// the coordinator and worker both call it before trusting a wire value.
func (s CellSpec) Validate() error {
	switch s.Arch {
	case "BASE", "SSBR", "SS", "DS":
	default:
		return fmt.Errorf("exp: spec %q: unknown architecture %q", s.Label, s.Arch)
	}
	if _, err := consistency.ParseModel(s.Model); err != nil {
		return fmt.Errorf("exp: spec %q: %w", s.Label, err)
	}
	if s.Window < 0 || s.Window > 1<<20 {
		return fmt.Errorf("exp: spec %q: window %d out of range", s.Label, s.Window)
	}
	if s.IssueWidth < 0 || s.IssueWidth > 64 {
		return fmt.Errorf("exp: spec %q: issue width %d out of range", s.Label, s.IssueWidth)
	}
	if s.StoreBufDepth < 0 || s.MSHRs < 0 {
		return fmt.Errorf("exp: spec %q: negative store-buffer depth %d or MSHR count %d", s.Label, s.StoreBufDepth, s.MSHRs)
	}
	if s.BTBEntries != 0 {
		if s.PerfectBP {
			return fmt.Errorf("exp: spec %q: perfect prediction and a BTB size are exclusive", s.Label)
		}
		if s.BTBEntries > maxBTBEntries {
			return fmt.Errorf("exp: spec %q: %d BTB entries out of range", s.Label, s.BTBEntries)
		}
		if err := bpred.CheckGeometry(s.BTBEntries, 4); err != nil {
			return fmt.Errorf("exp: spec %q: %w", s.Label, err)
		}
	}
	return nil
}

// config is the replay configuration a valid spec names. The harness
// options contribute only cancellation and the time-skip toggle, neither of
// which changes results. A BTB is built fresh on every call, so concurrent
// replays never share predictor state.
func (s CellSpec) config(o *Options) cpu.Config {
	m, _ := consistency.ParseModel(s.Model)
	cfg := cpu.Config{
		Model: m, Window: s.Window, IssueWidth: s.IssueWidth,
		StoreBufDepth: s.StoreBufDepth, MSHRs: s.MSHRs,
		Prefetch: s.Prefetch, IgnoreDataDeps: s.IgnoreDataDeps,
		Ctx: o.Ctx, NoTimeSkip: o.NoTimeSkip,
	}
	switch {
	case s.PerfectBP:
		cfg.Predictor = bpred.Perfect{}
	case s.BTBEntries != 0:
		btb, err := bpred.NewBTB(s.BTBEntries, 4)
		if err != nil {
			panic(err) // Validate rejects every geometry NewBTB does
		}
		cfg.Predictor = btb
	}
	return cfg
}

// column is the spec's Figure 3 column for the replayed numbers.
func (s CellSpec) column(b cpu.Breakdown, instructions uint64) Column {
	m, _ := consistency.ParseModel(s.Model)
	return Column{
		Label: s.Label, Model: m, Arch: s.Arch, Window: s.Window,
		Breakdown: b, Instructions: instructions,
	}
}

// failedColumn is the placeholder a terminally failed cell leaves in its
// slot: the configuration identity survives so tables can mark the row, the
// numbers stay zero.
func failedColumn(s CellSpec, err *CellError) Column {
	col := s.column(cpu.Breakdown{}, 0)
	col.Failed, col.Err = true, err
	return col
}

// Figure3Specs is the §4.1 processor/model matrix in serializable form:
// BASE; SSBR, SS, and DS-256 under SC and PC; SSBR, SS, and the full window
// sweep under RC.
func Figure3Specs() []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, m := range []consistency.Model{consistency.SC, consistency.PC} {
		for _, arch := range []string{"SSBR", "SS"} {
			specs = append(specs, CellSpec{Label: fmt.Sprintf("%s-%s", m, arch), Arch: arch, Model: m.String()})
		}
		specs = append(specs, CellSpec{Label: fmt.Sprintf("%s-DS256", m), Arch: "DS", Model: m.String(), Window: 256})
	}
	for _, arch := range []string{"SSBR", "SS"} {
		specs = append(specs, CellSpec{Label: fmt.Sprintf("RC-%s", arch), Arch: arch, Model: "RC"})
	}
	for _, w := range Windows {
		specs = append(specs, CellSpec{Label: fmt.Sprintf("RC-DS%d", w), Arch: "DS", Model: "RC", Window: w})
	}
	return specs
}

// Figure4Specs is the §4.1.3 isolation experiment under RC: the window sweep
// with perfect branch prediction, then with perfect prediction and ignored
// data dependences. BASE is included as the reference column.
func Figure4Specs() []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, noDeps := range []bool{false, true} {
		for _, w := range Windows {
			label := fmt.Sprintf("PBP-%d", w)
			if noDeps {
				label = fmt.Sprintf("PBP+ND-%d", w)
			}
			specs = append(specs, CellSpec{
				Label: label, Arch: "DS", Model: "RC", Window: w,
				PerfectBP: true, IgnoreDataDeps: noDeps,
			})
		}
	}
	return specs
}

// WindowSweepSpecs is the plain DS window sweep under a model with BASE as
// the reference column (the latency-100 and weak-ordering experiments).
func WindowSweepSpecs(model consistency.Model) []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, w := range Windows {
		specs = append(specs, CellSpec{
			Label: fmt.Sprintf("%s-DS%d", model, w), Arch: "DS", Model: model.String(), Window: w,
		})
	}
	return specs
}

// Issue4Specs is the §4.2 multiple-issue experiment: the RC window sweep at
// a decode/issue width of four.
func Issue4Specs() []CellSpec {
	return withDS(WindowSweepSpecs(consistency.RC), func(s *CellSpec) { s.IssueWidth = 4 })
}

// SCPrefetchSpecs is the non-binding-prefetch extension: the SC window sweep
// with the prefetcher enabled.
func SCPrefetchSpecs() []CellSpec {
	return withDS(WindowSweepSpecs(consistency.SC), func(s *CellSpec) { s.Prefetch = true })
}

// withDS applies set to every DS cell of specs.
func withDS(specs []CellSpec, set func(*CellSpec)) []CellSpec {
	for i := range specs {
		if specs[i].Arch == "DS" {
			set(&specs[i])
		}
	}
	return specs
}

// ablations are the three groups of the ablate sweep, DS under RC with one
// knob varied. AblationSpecs replays BASE once, then every group's cells;
// FormatAblations renders one table per group. The BTB sizes run at window
// 128, isolating how much prediction capacity the large windows need.
var ablations = []struct {
	title, config string
	specs         []CellSpec
}{
	{"Store-buffer depth ablation", "RC, window 64", knobSpecs(64, "SB", []int{1, 2, 4, 8, 16, 32},
		func(s *CellSpec, v int) { s.StoreBufDepth = v })},
	{"MSHR ablation", "RC, window 64", knobSpecs(64, "MSHR", []int{1, 2, 4, 8, 16, 0},
		func(s *CellSpec, v int) { s.MSHRs = v })},
	{"BTB size ablation", "RC, window 128", knobSpecs(128, "BTB", []int{64, 256, 1024, 2048, 8192},
		func(s *CellSpec, v int) { s.BTBEntries = v })},
}

// knobSpecs is one ablation group: an RC DS cell at window for each value
// set applies, labelled prefix and the value ("inf" for 0, unlimited).
func knobSpecs(window int, prefix string, values []int, set func(*CellSpec, int)) []CellSpec {
	specs := make([]CellSpec, len(values))
	for i, v := range values {
		specs[i] = CellSpec{Label: fmt.Sprintf("%s%d", prefix, v), Arch: "DS", Model: "RC", Window: window}
		if v == 0 {
			specs[i].Label = prefix + "inf"
		}
		set(&specs[i], v)
	}
	return specs
}

// AblationSpecs is the ablate sweep: BASE, then the store-buffer depth,
// MSHR count and BTB size groups.
func AblationSpecs() []CellSpec {
	specs := []CellSpec{{Label: "BASE", Arch: "BASE", Model: "SC"}}
	for _, g := range ablations {
		specs = append(specs, g.specs...)
	}
	return specs
}

// SweepDef is one row of the sweep table: an experiment that is one spec
// sweep over every application.
type SweepDef struct {
	Name  string // the hidelat experiment name
	Title string // heading of its column report; "" when it has its own format
	Specs func() []CellSpec
	// MissPenalty, when non-zero, is the miss penalty the sweep's traces
	// are generated at in place of Options.MissPenalty.
	MissPenalty uint32
}

func rcWindowSweep() []CellSpec { return WindowSweepSpecs(consistency.RC) }

// sweeps is the sweep table: the paper's column experiments, the §7
// summary (folded from the RC window sweep by SummarizeReadHidden) and the
// ablations. Every row can be replayed in process or distributed.
var sweeps = []SweepDef{
	{Name: "fig3", Title: "Figure 3: static vs dynamic scheduling under SC/PC/RC (normalized to BASE)", Specs: Figure3Specs},
	{Name: "fig4", Title: "Figure 4: perfect branch prediction (PBP) and ignored data dependences (ND) under RC", Specs: Figure4Specs},
	{Name: "summary", Specs: rcWindowSweep},
	{Name: "latency100", Title: "Latency 100: RC window sweep with a 100-cycle miss penalty (§4.2)", Specs: rcWindowSweep, MissPenalty: 100},
	{Name: "issue4", Title: "Multiple issue: RC window sweep at 4-wide issue (§4.2)", Specs: Issue4Specs},
	{Name: "wo", Title: "Weak ordering: DS window sweep under WO (extension)", Specs: func() []CellSpec { return WindowSweepSpecs(consistency.WO) }},
	{Name: "scpf", Title: "SC with non-binding prefetch: DS window sweep (extension, ref [8] / §6)", Specs: SCPrefetchSpecs},
	{Name: "ablate", Specs: AblationSpecs},
}

// LookupSweep returns the sweep table's row called name.
func LookupSweep(name string) (SweepDef, bool) {
	for _, sw := range sweeps {
		if sw.Name == name {
			return sw, true
		}
	}
	return SweepDef{}, false
}

// SweepSpecs returns the cell specs of the sweep-table row called step; ok
// is false for an experiment that is not one spec sweep over every
// application.
func SweepSpecs(step string) (specs []CellSpec, ok bool) {
	sw, ok := LookupSweep(step)
	if !ok {
		return nil, false
	}
	return sw.Specs(), true
}

// RunSpec replays one cell spec over tr — the distributed worker's replay
// entry point. Replay is a pure function of the trace and the spec, so the
// returned column is byte-identical to running the same cell in-process on
// the coordinator.
func RunSpec(tr *trace.Trace, spec CellSpec, o *Options) (Column, error) {
	if err := spec.Validate(); err != nil {
		return Column{}, err
	}
	if o == nil {
		o = new(Options)
	}
	res, err := runArch(tr, spec.Arch, spec.config(o))
	if err != nil {
		return Column{}, err
	}
	return spec.column(res.Breakdown, res.Instructions), nil
}

// SpecColumn reconstructs a successful cell's column from the spec identity
// plus the replayed numbers — what a cache hit does with the stored result,
// keeping the identity fields under the caller's control rather than
// trusting the stored bytes.
func SpecColumn(spec CellSpec, b cpu.Breakdown, instructions uint64) (Column, error) {
	if err := spec.Validate(); err != nil {
		return Column{}, err
	}
	return spec.column(b, instructions), nil
}

// mergeSweep assembles an apps × specs sweep from its outcomes by cell
// index (a*len(specs)+c) — perAppCells' merge, so local and distributed
// sweeps are byte-identical at any worker count and topology. genErrs[a]
// non-nil marks every cell of application a failed under one "(trace
// generation)" error; otherwise results[i] holds cell i's numbers, or
// cellErrs[i] its terminal failure. Each application's columns are
// normalized against its BASE column, and any failures come back, ordered
// by index, in a *PartialError alongside the partial results.
func mergeSweep(apps []string, specs []CellSpec, genErrs []error, results []cellResult, cellErrs []*CellError) ([]AppColumns, error) {
	nc := len(specs)
	out := make([]AppColumns, len(apps))
	var failed []*CellError
	for a, app := range apps {
		cols := make([]Column, nc)
		var genCE *CellError
		if genErrs[a] != nil {
			genCE = &CellError{Label: app + " (trace generation)", Index: a * nc, Attempts: 1, Err: genErrs[a]}
			failed = append(failed, genCE)
		}
		for c, s := range specs {
			if genCE != nil {
				cols[c] = failedColumn(s, genCE)
				continue
			}
			if ce := cellErrs[a*nc+c]; ce != nil {
				failed = append(failed, ce)
				cols[c] = failedColumn(s, ce)
				continue
			}
			r := results[a*nc+c]
			cols[c] = s.column(r.Breakdown, r.Instructions)
		}
		NormalizeColumns(cols)
		out[a] = AppColumns{App: app, Cols: cols}
	}
	if failed != nil {
		// The loop emits failures in index order already; the sort guards
		// the report's stability at any worker count.
		sort.Slice(failed, func(i, j int) bool { return failed[i].Index < failed[j].Index })
		return out, &PartialError{Total: len(apps) * nc, Cells: failed}
	}
	return out, nil
}
