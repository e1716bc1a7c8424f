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
	specs := WindowSweepSpecs(consistency.RC)
	for i := range specs {
		if specs[i].Arch == "DS" {
			specs[i].IssueWidth = 4
		}
	}
	return specs
}

// SCPrefetchSpecs is the non-binding-prefetch extension: the SC window sweep
// with the prefetcher enabled.
func SCPrefetchSpecs() []CellSpec {
	specs := WindowSweepSpecs(consistency.SC)
	for i := range specs {
		if specs[i].Arch == "DS" {
			specs[i].Prefetch = true
		}
	}
	return specs
}

// SweepSpecs maps a distributable experiment step name to its cell specs.
// The step names match the hidelat experiments; ok is false for steps that
// are not one column sweep over every application.
func SweepSpecs(step string) (specs []CellSpec, ok bool) {
	switch step {
	case "fig3":
		return Figure3Specs(), true
	case "fig4":
		return Figure4Specs(), true
	case "latency100":
		return WindowSweepSpecs(consistency.RC), true
	case "issue4":
		return Issue4Specs(), true
	case "wo":
		return WindowSweepSpecs(consistency.WO), true
	case "scpf":
		return SCPrefetchSpecs(), true
	}
	return nil, false
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

// NormalizeColumns fills the Normalized and ReadHidden fields of a finished
// column set against cols[0] (the BASE reference), exactly as mergeSweep
// does.
func NormalizeColumns(cols []Column) { normalize(cols) }

// mergeSweep assembles an apps × specs sweep from its outcomes by cell
// index (a*len(specs)+c) — perAppCells' merge, so local and distributed
// sweeps are byte-identical at any worker count and topology. genErrs[a]
// non-nil marks every cell of application a failed under one "(trace
// generation)" error; otherwise outcome(i) supplies cell i's numbers or its
// terminal failure. Each application's columns are normalized against its
// BASE column, and any failures come back, ordered by index, in a
// *PartialError alongside the partial results.
func mergeSweep(apps []string, specs []CellSpec, genErrs []error, outcome func(i int) (cpu.Breakdown, uint64, *CellError)) ([]AppColumns, error) {
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
			b, n, ce := outcome(a*nc + c)
			if ce != nil {
				failed = append(failed, ce)
				cols[c] = failedColumn(s, ce)
				continue
			}
			cols[c] = s.column(b, n)
		}
		normalize(cols)
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
