package workload

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/memory"
)

// handoffSpec is a fixed 16-proc run over 1 MB of shared data, half
// writes, with one flag barrier: remote fills, snarf joins, write
// serialization and invalidations under the interpreter.
func handoffSpec() Spec {
	return Spec{
		Schema: SpecSchema, Name: "handoffs",
		Machine: "ksr1", Cells: 32, Seed: 1,
		Tenants: []Tenant{{
			Name: "t", FirstCell: 0, Procs: 16,
			Arrival: Arrival{Process: ArrivalSteady},
			Phases: []Phase{{
				Name: "remote", Iterations: 4,
				WorkingSetBytes: 1 << 20, AccessesPerIter: 300, ReadPct: 50,
				Sharing: SharingShared, Pattern: PatternUniform,
				ComputePerIter: 100,
				Barrier:        BarrierFlag, BarrierEvery: 4,
			}},
		}},
	}
}

// Event and handoff counts of handoffSpec's run with the blocking access
// path and interpreter (one goroutine handoff per park), recorded before
// they became continuation chains.
const (
	blockingExecuteEvents   = 56487
	blockingExecuteHandoffs = 37331
)

// TestExecuteHandoffs pins what the interpreter and access chains buy:
// the same events as the blocking paths (so the same simulation) for a
// small fraction of the goroutine handoffs. Data ops never return to the
// slot's goroutine until a barrier, so handoffs must fall to at most 2%
// of the blocking count.
func TestExecuteHandoffs(t *testing.T) {
	tr, err := Compile(handoffSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := execute(tr, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events, handoffs := m.Engine().EventsExecuted(), m.Engine().Handoffs()
	t.Logf("%d events, %d handoffs", events, handoffs)
	if events != blockingExecuteEvents {
		t.Errorf("%d events, want %d", events, blockingExecuteEvents)
	}
	if handoffs*50 > blockingExecuteHandoffs {
		t.Errorf("%d handoffs, want at most 2%% of %d", handoffs, blockingExecuteHandoffs)
	}
}

// One interpreter op of each compute and data kind allocates nothing
// once the slot has run its stream once.
func TestInterpreterOpAllocs(t *testing.T) {
	m := machine.New(machine.KSR1(1))
	base := int64(m.Alloc("data", memory.SubPageSize).Base)
	ops := []Op{
		{Kind: OpCompute, A: 10},
		{Kind: OpRead, A: base},
		{Kind: OpWrite, A: base + memory.WordSize},
		{Kind: OpReadRange, A: base, B: 4, C: memory.WordSize},
		{Kind: OpWriteRange, A: base, B: 4, C: 2 * memory.WordSize},
	}
	var allocs float64
	_, err := m.Run(1, func(p *machine.Proc) {
		s := newSlotRun(p, ops, nil, nil)
		s.run()
		allocs = testing.AllocsPerRun(50, func() {
			s.next = 0
			s.run()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocs / float64(len(ops)); per != 0 {
		t.Errorf("%v allocs per interpreter op, want 0", per)
	}
}

// TestExecuteRejectsStrayDataOps feeds Execute traces whose data ops
// were edited after compilation and round-tripped through the file
// format, which accepts any operand up to 2^62. Execute must refuse each
// with an error naming the slot and op, before any cell program runs.
func TestExecuteRejectsStrayDataOps(t *testing.T) {
	cases := []struct {
		name string
		edit func(rd RegionDef, op *Op)
		want string // "" when Execute must accept the edit
	}{
		{"range far outside", func(_ RegionDef, op *Op) { op.A, op.B = 1<<40, 1<<16 }, "outside every recorded region"},
		{"range ending on its region's last word", func(rd RegionDef, op *Op) {
			op.A, op.B, op.C = int64(rd.Base)+rd.Bytes-2*memory.WordSize, 2, memory.WordSize
		}, ""},
		{"range one word past its region", func(rd RegionDef, op *Op) {
			op.A, op.B, op.C = int64(rd.Base)+rd.Bytes-memory.WordSize, 2, memory.WordSize
		}, "runs past its region"},
		// (B-1)·C is 2^64: in 64-bit arithmetic A+(B-1)·C wraps back to A.
		{"range end overflows", func(_ RegionDef, op *Op) { op.B, op.C = 5, 1<<62 }, "runs past its region"},
		{"range stride zero", func(_ RegionDef, op *Op) { op.C = 0 }, "with stride 0"},
		{"read before the regions", func(_ RegionDef, op *Op) { op.Kind, op.A = OpRead, 0 }, "outside every recorded region"},
		{"write straddling the region end", func(rd RegionDef, op *Op) {
			op.Kind, op.A = OpWrite, int64(rd.Base)+rd.Bytes-memory.WordSize+1
		}, "outside every recorded region"},
	}
	for _, c := range cases {
		tr := compilePreset(t, "stencil", 4)
		si, oi := 1, -1
		for i, op := range tr.Slots[si] {
			if op.Kind == OpReadRange {
				oi = i
				break
			}
		}
		if oi < 0 {
			t.Fatal("stencil slot 1 has no read range")
		}
		c.edit(tr.Header.Regions[0], &tr.Slots[si][oi])
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: the file format rejected the edit, so this case tests nothing: %v", c.name, err)
		}
		_, err = Execute(loaded, ExecOptions{})
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Execute accepted the edited trace", c.name)
			continue
		}
		prefix := "workload: slot 1 op " + strconv.Itoa(oi) + ": "
		if !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q, want %q... %q", c.name, err, prefix, c.want)
		}
	}
}

// BenchmarkExecuteTrace measures one interpreter op of 16 slots running
// a shared write-heavy stream (64 KB, half writes) on a KSR-1: remote
// fills, invalidations, sub-cache hits and compute. A warm-up pass over
// the same stream builds every cache frame and directory entry before
// the timer starts.
func BenchmarkExecuteTrace(b *testing.B) {
	const procs = 16
	s := handoffSpec()
	s.Tenants[0].Phases[0].WorkingSetBytes = 64 << 10
	s.Tenants[0].Phases[0].Barrier, s.Tenants[0].Phases[0].BarrierEvery = "", 0
	tr, err := Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.New(machine.KSR1(s.Cells))
	for _, rd := range tr.Header.Regions {
		m.Alloc(rd.Name, rd.Bytes)
	}
	if _, err := m.Run(procs, func(p *machine.Proc) {
		newSlotRun(p, tr.Slots[p.CellID()], nil, nil).run()
	}); err != nil {
		b.Fatal(err)
	}
	// Each slot's share of b.N ops, cycling through its stream.
	streams := make([][]Op, procs)
	for i := range streams {
		n := b.N / procs
		if i < b.N%procs {
			n++
		}
		src := tr.Slots[i]
		streams[i] = make([]Op, n)
		for k := range streams[i] {
			streams[i][k] = src[k%len(src)]
		}
	}
	handoffs := m.Engine().Handoffs()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(procs, func(p *machine.Proc) {
		newSlotRun(p, streams[p.CellID()], nil, nil).run()
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Engine().Handoffs()-handoffs)/float64(b.N), "handoffs/op")
}
