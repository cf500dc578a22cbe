package pmem

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refHeap is the crash journal as a slice per heap line: every line
// keeps its entries, its fenced prefix and a generation each truncation
// bumps, and a crash and a restart walk every line. It is the reference
// the pooled journals are checked against. left counts the accesses
// still to run before the crash, as ScheduleCrashAtAccess counts them.
type refHeap struct {
	mem, img []uint64
	lines    []refLine
	pending  [][]pendingFlush
	left     int64
}

type refLine struct {
	entries   []logEntry
	persisted int
	gen       uint64
}

func newRefHeap(h *Heap, cut int64) *refHeap {
	return &refHeap{
		mem:     slices.Clone(h.mem),
		img:     image(h),
		lines:   make([]refLine, h.lines),
		pending: make([][]pendingFlush, h.cfg.MaxThreads),
		left:    cut,
	}
}

// access reports whether the next access runs: false from the crash on.
func (r *refHeap) access() bool { r.left--; return r.left > 0 }

func (r *refHeap) store(w int, vs ...uint64) {
	copy(r.mem[w:], vs)
	e := logEntry{off: uint8(w % WordsPerLine), n: uint8(len(vs))}
	copy(e.v[:], vs)
	lg := &r.lines[w/WordsPerLine]
	lg.entries = append(lg.entries, e)
}

func (r *refHeap) flush(tid, line int) {
	lg := &r.lines[line]
	r.pending[tid] = append(r.pending[tid], pendingFlush{line: line, upTo: len(lg.entries), gen: lg.gen})
}

func (r *refHeap) apply(line int, entries []logEntry) {
	for _, e := range entries {
		copy(r.img[line*WordsPerLine+int(e.off):], e.v[:e.n])
	}
	lg := &r.lines[line]
	lg.entries, lg.persisted = lg.entries[:0], 0
	lg.gen++
}

func (r *refHeap) fence(tid int) {
	for _, p := range r.pending[tid] {
		if lg := &r.lines[p.line]; p.gen == lg.gen {
			lg.persisted = max(lg.persisted, p.upTo)
			if lg.persisted == len(lg.entries) && lg.persisted > 0 {
				r.apply(p.line, lg.entries)
			}
		}
	}
	r.pending[tid] = r.pending[tid][:0]
}

func (r *refHeap) finalize(rng *rand.Rand) {
	for line := range r.lines {
		if lg := &r.lines[line]; len(lg.entries) > 0 {
			k := lg.persisted
			if n := len(lg.entries) - k; n > 0 {
				k += rng.Intn(n + 1)
			}
			r.apply(line, lg.entries[:k])
		}
	}
}

// TestJournalMatchesReference plays seeded mixes of every journalling
// verb on two tids, over 64 lines spread across twice as many lines as
// there are lock shards, through a ModeCrash heap and the per-line reference
// in lockstep, cut at a random access. Both crash at the same access;
// with equal rng seeds FinalizeCrash leaves the same image; and after
// Restart the working view is the image.
func TestJournalMatchesReference(t *testing.T) {
	const pairs = 32 // lines come in pairs so WriteBack and InitRange can span two
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := New(Config{Bytes: 3 * lockShards * CacheLineBytes, Mode: ModeCrash, MaxThreads: 2})
		var lines []int
		for _, p := range rng.Perm(lockShards)[:pairs] {
			lines = append(lines, lockShards+2*p, lockShards+2*p+1)
		}
		cut := 1 + rng.Int63n(600)
		h.ScheduleCrashAtAccess(cut)
		r := newRefHeap(h, cut)

		for op := 0; op < 300; op++ {
			tid := rng.Intn(2)
			i := rng.Intn(len(lines))
			line := lines[i]
			w := line*WordsPerLine + rng.Intn(WordsPerLine)
			a := Addr(w * WordBytes)
			v := rng.Uint64()%4 + 1 // small values so CAS and DCAS often succeed
			span := 1
			if i%2 == 0 && rng.Intn(2) == 0 { // lines[i+1] is line+1
				span = 2
			}
			var heapOp func()
			ran := true
			switch k := rng.Intn(100); {
			case k < 30:
				heapOp = func() { h.Store(tid, a, v) }
				if ran = r.access(); ran {
					r.store(w, v)
				}
			case k < 50:
				heapOp = func() { h.Flush(tid, a) }
				if ran = r.access(); ran {
					r.flush(tid, line)
				}
			case k < 65:
				heapOp = func() { h.Fence(tid) }
				if ran = r.access(); ran {
					r.fence(tid)
				}
			case k < 73:
				old := r.mem[w]
				if rng.Intn(3) == 0 {
					old = v
				}
				heapOp = func() { h.CAS(tid, a, old, v) }
				if ran = r.access(); ran && r.mem[w] == old {
					r.store(w, v)
				}
			case k < 80:
				w &^= 1
				a = Addr(w * WordBytes)
				old0, old1 := r.mem[w], r.mem[w+1]
				if rng.Intn(3) == 0 {
					old1 = v
				}
				heapOp = func() { h.DCAS(tid, a, old0, old1, v, v+1) }
				if ran = r.access(); ran && r.mem[w] == old0 && r.mem[w+1] == old1 {
					r.store(w, v, v+1)
				}
			case k < 88:
				heapOp = func() { h.NTStore(tid, a, v) }
				if ran = r.access(); ran {
					r.store(w, v)
					r.flush(tid, line)
				}
			case k < 95:
				words := make([]uint64, span*WordsPerLine)
				for j := range words {
					words[j] = rng.Uint64()
				}
				heapOp = func() { h.WriteBack(tid, Addr(line*CacheLineBytes), words) }
				for l := 0; l < span && ran; l++ {
					for j := 0; j < WordsPerLine && ran; j++ {
						if ran = r.access(); ran {
							r.store((line+l)*WordsPerLine+j, words[l*WordsPerLine+j])
						}
					}
					if ran = ran && r.access(); ran {
						r.flush(tid, line+l)
					}
				}
			default:
				heapOp = func() { h.InitRange(tid, Addr(line*CacheLineBytes), int64(span*CacheLineBytes)) }
				for l := line; l < line+span; l++ {
					clear(r.mem[l*WordsPerLine : (l+1)*WordsPerLine])
					clear(r.img[l*WordsPerLine : (l+1)*WordsPerLine])
					r.lines[l].entries, r.lines[l].persisted = r.lines[l].entries[:0], 0
					r.lines[l].gen++
				}
			}
			if crashed := Protect(heapOp); crashed == ran {
				t.Fatalf("seed %d op %d: heap crashed %v, reference ran %v", seed, op, crashed, ran)
			}
			if !ran {
				break
			}
		}
		if !h.Crashed() {
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(seed)))
		r.finalize(rand.New(rand.NewSource(seed)))
		img := image(h)
		if w := firstDiff(img, r.img); w >= 0 {
			t.Fatalf("seed %d: image word %d (line %d) is %#x, reference %#x", seed, w, w/WordsPerLine, img[w], r.img[w])
		}
		h.Restart()
		if w := firstDiff(h.mem, img); w >= 0 {
			t.Fatalf("seed %d: after Restart word %d (line %d) reads %#x, image %#x", seed, w, w/WordsPerLine, h.mem[w], img[w])
		}
	}
}

// image returns h's NVRAM image: its working view with every open
// journal's base laid over the journal's line.
func image(h *Heap) []uint64 {
	img := slices.Clone(h.mem)
	for _, j := range h.openJournals() {
		copy(img[j.line*WordsPerLine:], j.base[:])
	}
	return img
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestCrashJournalsFollowUnfencedLines pins what a ModeCrash heap keeps
// journals for: the lines stored since their last apply, and nothing
// the run has persisted or never written, however large the heap.
func TestCrashJournalsFollowUnfencedLines(t *testing.T) {
	if s := unsafe.Sizeof(shard{}); s != CacheLineBytes {
		t.Fatalf("a lock shard is %d bytes, want one cache line", s)
	}
	h := New(Config{Bytes: 1 << 30, Mode: ModeCrash, MaxThreads: 2})
	openLines := func() []int {
		var ls []int
		for _, j := range h.openJournals() {
			ls = append(ls, j.line)
		}
		return ls
	}
	line := func(a Addr) int { return int(a / CacheLineBytes) }
	for i := 0; i < 1000; i++ {
		a := dataStart + Addr(i*CacheLineBytes)
		h.Store(0, a, uint64(i+1))
		h.Flush(0, a)
	}
	h.Fence(0)
	if ls := openLines(); len(ls) != 0 {
		t.Fatalf("after persisting 1000 lines, journals are open on lines %v", ls)
	}

	// Three lines left unfenced: one persisted earlier and stored again,
	// one flushed by another tid but not fenced, and one far away.
	unfenced := []Addr{dataStart + 10*CacheLineBytes, dataStart + 2000*CacheLineBytes, 1 << 29}
	h.Store(0, unfenced[0], 99)
	h.Store(1, unfenced[1], 99)
	h.Flush(1, unfenced[1])
	h.Store(0, unfenced[2], 99)
	if ls := openLines(); len(ls) != 3 || ls[0] != line(unfenced[0]) || ls[1] != line(unfenced[1]) || ls[2] != line(unfenced[2]) {
		t.Fatalf("open journals on lines %v, want the 3 unfenced lines %d, %d, %d",
			ls, line(unfenced[0]), line(unfenced[1]), line(unfenced[2]))
	}

	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	if ls := openLines(); len(ls) != 3 {
		t.Fatalf("FinalizeCrash left journals open on %v, want the 3 lines Restart must reload", ls)
	}
	h.Restart()
	if ls := openLines(); len(ls) != 0 {
		t.Fatalf("after Restart, journals are open on lines %v", ls)
	}
	for i, a := range unfenced {
		want := uint64(0)
		if i == 0 {
			want = 11
		}
		if m, g := h.RawMem(a), h.RawImg(a); m != want || g != want {
			t.Fatalf("unfenced line %d after a zero-prefix crash: mem %d, img %d, want %d", line(a), m, g, want)
		}
	}
	for i := 0; i < 1000; i++ {
		a := dataStart + Addr(i*CacheLineBytes)
		if i != 10 && (h.RawMem(a) != uint64(i+1) || h.RawImg(a) != uint64(i+1)) {
			t.Fatalf("persisted line %d lost its value across the crash", line(a))
		}
	}
	far := Addr(h.Bytes() - CacheLineBytes)
	if h.RawMem(far) != 0 || h.RawImg(far) != 0 {
		t.Fatal("a never-written line does not read 0 in both views")
	}

	h.Store(0, unfenced[1], 7)
	if ls := openLines(); len(ls) != 1 {
		t.Fatalf("journals open on %v, want 1", ls)
	}
	h.InitRange(0, unfenced[1], CacheLineBytes)
	if ls := openLines(); len(ls) != 0 {
		t.Fatalf("InitRange left journals open on %v", ls)
	}
	if h.RawMem(unfenced[1]) != 0 || h.RawImg(unfenced[1]) != 0 {
		t.Fatal("InitRange did not zero both views")
	}
}

// TestImageIsJournalBase pins where a ModeCrash heap keeps its image: a
// line's image is the content it held when its journal opened, for as
// long as the journal stays open, and its working view once a fence has
// persisted the journal whole. Every journalling verb opens the journal
// over the line as it stood before the verb's write, whole: the line's
// other words, persisted earlier, keep their values in the image.
func TestImageIsJournalBase(t *testing.T) {
	type view struct {
		mem, img uint64
		open     bool
	}
	// setup gives a fresh heap a line whose words 0 and 1 hold 1 and 2,
	// persisted, so that every case opens a journal over set content.
	setup := func() (*Heap, Addr) {
		h := newCrashHeap(t)
		a := h.AllocRaw(0, CacheLineBytes, CacheLineBytes)
		h.Store(0, a, 1)
		h.Store(0, a+8, 2)
		h.Persist(0, a)
		return h, a
	}
	at := func(h *Heap, a Addr) view {
		return view{h.RawMem(a), h.RawImg(a), h.jidx[a/CacheLineBytes] != 0}
	}
	for _, c := range []struct {
		name   string
		run    func(h *Heap, a Addr)
		w0, w1 view // words 0 and 1 of the line afterwards
	}{
		{"unfenced Store", func(h *Heap, a Addr) { h.Store(0, a, 5) },
			view{5, 1, true}, view{2, 2, true}},
		{"Store+Flush+Fence", func(h *Heap, a Addr) { h.Store(0, a, 5); h.Persist(0, a) },
			view{5, 5, false}, view{2, 2, false}},
		{"Store, Flush, Store, Fence", func(h *Heap, a Addr) {
			h.Store(0, a, 5)
			h.Flush(0, a)
			h.Store(0, a+8, 6)
			h.Fence(0)
		}, view{5, 1, true}, view{6, 2, true}},
		{"CAS", func(h *Heap, a Addr) { h.CAS(0, a, 1, 5) },
			view{5, 1, true}, view{2, 2, true}},
		{"failed CAS", func(h *Heap, a Addr) { h.CAS(0, a, 4, 5) },
			view{1, 1, false}, view{2, 2, false}},
		{"DCAS", func(h *Heap, a Addr) { h.DCAS(0, a, 1, 2, 5, 6) },
			view{5, 1, true}, view{6, 2, true}},
		{"NTStore", func(h *Heap, a Addr) { h.NTStore(0, a+8, 6) },
			view{1, 1, true}, view{6, 2, true}},
		{"NTStore+Fence", func(h *Heap, a Addr) { h.NTStore(0, a+8, 6); h.Fence(0) },
			view{1, 1, false}, view{6, 6, false}},
	} {
		h, a := setup()
		c.run(h, a)
		if w0, w1 := at(h, a), at(h, a+8); w0 != c.w0 || w1 != c.w1 {
			t.Errorf("%s: words 0 and 1 read %+v, %+v, want %+v, %+v", c.name, w0, w1, c.w0, c.w1)
		}
	}

	// A crash: the journal holds 5 at word 0 (fenced), 6 at word 1 and 7
	// at word 2, and the minimal prefix keeps the fenced entry alone.
	h, a := setup()
	h.Store(0, a, 5)
	h.Flush(0, a)
	h.Store(0, a+8, 6)
	h.Fence(0)
	h.Store(0, a+16, 7)
	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	want := []view{{5, 5, true}, {6, 2, true}, {7, 0, true}}
	for w, v := range want {
		if got := at(h, a+Addr(w*WordBytes)); got != v {
			t.Fatalf("after FinalizeCrash word %d reads %+v, want %+v", w, got, v)
		}
	}
	h.Restart()
	for w, v := range want {
		if got := at(h, a+Addr(w*WordBytes)); got != (view{v.img, v.img, false}) {
			t.Fatalf("after Restart word %d reads %+v, want mem and img %d, no journal", w, got, v.img)
		}
	}
}

// TestScheduleCrashAtAccessRequiresModeCrash: a ModePerf heap counts no
// accesses, so a crash armed on it could never fire and the test arming
// it would pass without testing anything.
func TestScheduleCrashAtAccessRequiresModeCrash(t *testing.T) {
	h := newPerfHeap(t)
	h.ScheduleCrashAtAccess(0) // disarming is legal in any mode
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCrashAtAccess(1) on a ModePerf heap did not panic")
		}
	}()
	h.ScheduleCrashAtAccess(1)
}

// BenchmarkCrashStoreFlushFence is a Store+Flush+Fence on a line not
// written before, in ModeCrash at zero prices: the journal's own cost
// per persisted line, one journal opened, applied and pooled each time.
func BenchmarkCrashStoreFlushFence(b *testing.B) {
	h := New(Config{Bytes: 64 << 20, Mode: ModeCrash})
	fresh := h.lines - int(dataStart/CacheLineBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := dataStart + Addr(i%fresh*CacheLineBytes)
		h.Store(0, a, uint64(i))
		h.Flush(0, a)
		h.Fence(0)
	}
}

// BenchmarkCrashRestart is the power loss of a 128 MiB ModeCrash heap
// that leaves 1 000 lines, spread over the heap, stored but unfenced:
// FinalizeCrash and then Restart.
func BenchmarkCrashRestart(b *testing.B) {
	h := New(Config{Bytes: 128 << 20, Mode: ModeCrash})
	const unfenced = 1000
	stride := (h.lines - int(dataStart/CacheLineBytes)) / unfenced
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for l := 0; l < unfenced; l++ {
			h.Store(0, dataStart+Addr(l*stride*CacheLineBytes), uint64(i+1))
		}
		h.CrashNow()
		b.StartTimer()
		h.FinalizeCrash(rng)
		h.Restart()
	}
}
