// Key-value store: a small in-memory KV store whose value storage lives
// in an Attaché compressed memory. Values are serialized into 64-byte
// lines; the store reports how much memory bandwidth compression saved
// for a realistic record mix.
//
//	go run ./examples/keyvaluestore
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"attache"
)

// kvStore maps string keys to value locations inside an Attaché memory.
type kvStore struct {
	mem      *attache.Memory
	index    map[string][]uint64 // key -> line addresses
	lengths  map[string]int
	nextLine uint64
	free     [][]uint64
}

func newKVStore() (*kvStore, error) {
	mem, err := attache.NewMemory()
	if err != nil {
		return nil, err
	}
	return &kvStore{
		mem:     mem,
		index:   map[string][]uint64{},
		lengths: map[string]int{},
	}, nil
}

// Put stores value under key, padding it into 64-byte lines.
func (s *kvStore) Put(key string, value []byte) error {
	if old, ok := s.index[key]; ok {
		s.free = append(s.free, old)
	}
	nLines := (len(value) + attache.LineSize - 1) / attache.LineSize
	var addrs []uint64
	if n := len(s.free); n > 0 && len(s.free[n-1]) >= nLines {
		addrs = s.free[n-1][:nLines]
		s.free = s.free[:n-1]
	} else {
		for i := 0; i < nLines; i++ {
			addrs = append(addrs, s.nextLine)
			s.nextLine++
		}
	}
	for i, addr := range addrs {
		line := make([]byte, attache.LineSize)
		copy(line, value[i*attache.LineSize:])
		if err := s.mem.Write(addr, line); err != nil {
			return err
		}
	}
	s.index[key] = addrs
	s.lengths[key] = len(value)
	return nil
}

// Get retrieves the value stored under key.
func (s *kvStore) Get(key string) ([]byte, bool, error) {
	addrs, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, 0, len(addrs)*attache.LineSize)
	for _, addr := range addrs {
		line, err := s.mem.Read(addr)
		if err != nil {
			return nil, false, err
		}
		out = append(out, line...)
	}
	return out[:s.lengths[key]], true, nil
}

// makeRecord builds a typical small "user record": integer ids, counters
// and timestamps (highly compressible), plus an opaque random token.
func makeRecord(rng *rand.Rand, id int) []byte {
	rec := make([]byte, 0, 192)
	var scratch [8]byte
	appendU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		rec = append(rec, scratch[:]...)
	}
	appendU64(uint64(id))
	appendU64(uint64(1700000000 + id*60)) // created-at
	appendU64(uint64(1700000000 + id*61)) // updated-at
	for i := 0; i < 12; i++ {
		appendU64(uint64(rng.Intn(1000))) // counters, flags, small enums
	}
	token := make([]byte, 32) // opaque auth token: incompressible
	rng.Read(token)
	return append(rec, token...)
}

func main() {
	store, err := newKVStore()
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2024))

	const records = 5000
	for i := 0; i < records; i++ {
		if err := store.Put(fmt.Sprintf("user:%06d", i), makeRecord(rng, i)); err != nil {
			log.Fatal(err)
		}
	}

	// A read-heavy serving phase with a skewed key distribution.
	hits := 0
	for i := 0; i < 30000; i++ {
		id := rng.Intn(records)
		if rng.Intn(4) != 0 {
			id = rng.Intn(records / 10) // hot decile
		}
		v, ok, err := store.Get(fmt.Sprintf("user:%06d", id))
		if err != nil {
			log.Fatal(err)
		}
		if ok && binary.LittleEndian.Uint64(v) == uint64(id) {
			hits++
		}
	}

	st := store.mem.StatsSnapshot()
	fmt.Println("Attaché-backed key-value store")
	fmt.Printf("  records:            %d (%d lines)\n", records, st.Lines)
	fmt.Printf("  lookups verified:   %d\n", hits)
	fmt.Printf("  compressed lines:   %.1f%%\n", st.CompressedLineRatio()*100)
	fmt.Printf("  bandwidth savings:  %.1f%% of sub-rank transfers avoided\n",
		st.BandwidthSavings()*100)
	fmt.Printf("  COPR accuracy:      %.1f%%\n", st.PredictionAccuracy*100)
	fmt.Printf("  RA (CID collision): %d accesses across %d operations\n",
		st.RAAccesses, st.Reads+st.Writes)
}
