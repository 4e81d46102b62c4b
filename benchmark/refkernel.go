package main

import (
	"encoding/json"
	"sort"
	"time"
)

// refJob is what the reference kernel encodes and decodes.
type refJob struct {
	ID    int      `json:"id"`
	Name  string   `json:"name"`
	Vals  []int    `json:"vals"`
	Tags  []string `json:"tags"`
	Score float64  `json:"score"`
}

type refNode struct {
	next *refNode
	v    [6]int
}

var (
	refSort = make([]int, 30000)
	refSink int
)

// refKernel is a fixed piece of work made of the standard library alone: a
// JSON round trip, a linked list and a map built and walked, a sort. It
// does what the program under test does (allocate, chase pointers, compare)
// and a change to the program cannot change it, so the time it takes says
// how fast the machine is at this moment.
func refKernel() time.Duration {
	t0 := time.Now()
	for i := 0; i < 1000; i++ {
		in := refJob{ID: i, Name: "job", Vals: []int{1, 2, 3, i}, Tags: []string{"a", "b"}, Score: 1.5}
		b, err := json.Marshal(&in)
		var out refJob
		if err != nil || json.Unmarshal(b, &out) != nil {
			panic("benchmark: reference kernel: JSON round trip failed")
		}
		refSink += out.ID
	}
	byKey := map[int]*refNode{}
	var head *refNode
	for i := 0; i < 20000; i++ {
		n := &refNode{next: head}
		n.v[0] = i
		head = n
		byKey[i&4095] = n
	}
	for n := head; n != nil; n = n.next {
		refSink += n.v[0]
	}
	refSink += len(byKey)
	x := uint64(99)
	for i := range refSort {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refSort[i] = int(x >> 1)
	}
	sort.Ints(refSort)
	refSink += refSort[0]
	return time.Since(t0)
}
