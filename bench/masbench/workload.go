package main

import (
	"encoding/binary"
	"math/rand/v2"

	"github.com/memadapt/masort"
)

const (
	pageRecords  = 256
	payloadBytes = 16
	poolBytes    = 1 << 20
	// recordBytes is what one record holds in memory: the Record struct
	// (key + slice header) and its payload bytes. A budget page is
	// pageRecords of them.
	recordBytes = 32 + payloadBytes
)

// workload is one named set of inputs. Every workload runs the zero-value
// options — replacement selection with 6-page blocks, optimized merge,
// dynamic splitting, the algorithm the paper recommends — at 256 records a
// page, so only the fields below differ.
type workload struct {
	Name string
	Why  string

	Records int  // input records per rep
	Runs    int  // > 0: input is that many pre-sorted runs fed to Merge
	File    bool // FileStore with the default config; otherwise MemStore
	Budget  int  // pages; the ceiling when Fluct is set
	Workers int
	// Fluct drives the budget through a seeded schedule in
	// [FluctFloor, Budget] keyed on the sort's own store operations.
	Fluct      bool
	FluctFloor int
}

var workloads = []workload{
	{
		Name: "sort_file", Records: 2_000_000, File: true, Budget: 64, Workers: 1,
		Why: "canonical generate-sort-verify on a FileStore, input 122x a fixed 64-page budget: every layer does real work",
	},
	{
		Name: "sort_mem", Records: 2_000_000, Budget: 64, Workers: 1,
		Why: "same input on a MemStore: codec and file I/O drop out, so run generation and the merge heap are the time",
	},
	{
		Name: "sort_file_fluct", Records: 2_000_000, File: true, Budget: 64, Workers: 1, Fluct: true, FluctFloor: 16,
		Why: "sort_file under a seeded progress-keyed budget schedule in [16,64] pages: the paper's premise, bypassed by the rest",
	},
	{
		Name: "merge_file", Records: 3_000_000, Runs: 96, File: true, Budget: 32, Workers: 1,
		Why: "Merge of 96 pre-sorted runs under 32 pages: reads dominant, no run generation at all",
	},
	{
		Name: "sort_file_w2", Records: 2_000_000, File: true, Budget: 64, Workers: 2,
		Why: "sort_file with WithWorkers(2) on the same budget: the crew, fence-cut merge and multi-reader store path",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputPages is the number of pages the input occupies.
func (w workload) inputPages() int {
	if w.Runs > 0 {
		per := w.Records / w.Runs
		return w.Runs * ((per + pageRecords - 1) / pageRecords)
	}
	return (w.Records + pageRecords - 1) / pageRecords
}

// fingerprint identifies a multiset of records: the count plus the sum and
// xor of a hash of key and payload. It does not depend on order, so the
// input's fingerprint must equal the sorted output's.
type fingerprint struct {
	N   int
	Sum uint64
	Xor uint64
}

func (f *fingerprint) add(r masort.Record) {
	h := hashRecord(r)
	f.N++
	f.Sum += h
	f.Xor ^= h
}

// hashRecord mixes the key and every payload byte (splitmix64 finalizer
// per 8-byte word), so a flipped bit anywhere changes the hash.
func hashRecord(r masort.Record) uint64 {
	h := mix64(r.Key + 0x9e3779b97f4a7c15)
	p := r.Payload
	for len(p) >= 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for _, b := range p {
		h = mix64(h ^ uint64(b))
	}
	return mix64(h ^ uint64(len(r.Payload)))
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// input is one workload's generated input. The record and pool arrays are
// reused from rep to rep, so regenerating allocates nothing.
type input struct {
	pool []byte
	recs []masort.Record
	want fingerprint
}

// generate fills in from seed alone: uniform-random keys, each with a
// 16-byte payload sliced from a seeded 1 MiB pool. For a merge workload
// the records form w.Runs consecutive sorted runs: keys ascend by random
// gaps, which keeps generation linear (no sort in set-up).
func (in *input) generate(w workload, seed uint64) {
	if in.pool == nil {
		in.pool = make([]byte, poolBytes)
		in.recs = make([]masort.Record, w.Records)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d61736f7274)) // "masort"
	for i := 0; i < len(in.pool); i += 8 {
		binary.LittleEndian.PutUint64(in.pool[i:], rng.Uint64())
	}
	in.want = fingerprint{}
	per := len(in.recs)
	var gap uint64
	if w.Runs > 0 {
		per = len(in.recs) / w.Runs
		gap = ^uint64(0)/uint64(per) - 1
	}
	var key uint64
	for i := range in.recs {
		if gap == 0 {
			key = rng.Uint64()
		} else if i%per == 0 {
			key = rng.Uint64N(gap)
		} else {
			key += 1 + rng.Uint64N(gap)
		}
		off := rng.IntN(poolBytes - payloadBytes + 1)
		in.recs[i] = masort.Record{Key: key, Payload: in.pool[off : off+payloadBytes : off+payloadBytes]}
		in.want.add(in.recs[i])
	}
}

// run returns the records of pre-sorted input run i of a merge workload.
func (in *input) run(w workload, i int) []masort.Record {
	per := len(in.recs) / w.Runs
	return in.recs[i*per : (i+1)*per]
}

// fluctLevels is the number of distinct budget levels of a schedule.
const fluctLevels = 8

// schedule is the budget sequence of a fluctuating workload: shuffles of
// the same fluctLevels evenly spaced levels from floor to ceiling, one
// shuffle after another, so every level is visited once per fluctLevels
// changes. The generator's seed is a constant of the benchmark, not the
// run's -seed: with the order of levels drawn from -seed, I/O volume moved
// by 5 % and reaction pages by 12 % from seed to seed — more than their
// bounds — so the order is part of the workload and -seed picks the data.
type schedule struct {
	rng    *rand.Rand
	levels [fluctLevels]int
	next   int
}

func newSchedule(w workload) *schedule {
	s := &schedule{rng: rand.New(rand.NewPCG(0x666c756374, 1993))} // "fluct", the paper's year
	for i := range s.levels {
		s.levels[i] = w.FluctFloor + i*(w.Budget-w.FluctFloor)/(fluctLevels-1)
	}
	return s
}

// nextPages returns the next budget target in pages.
func (s *schedule) nextPages() int {
	if s.next == 0 {
		s.rng.Shuffle(len(s.levels), func(i, j int) {
			s.levels[i], s.levels[j] = s.levels[j], s.levels[i]
		})
	}
	p := s.levels[s.next]
	s.next = (s.next + 1) % len(s.levels)
	return p
}
