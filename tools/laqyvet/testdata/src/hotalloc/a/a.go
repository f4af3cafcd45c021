// Package a is hotalloc golden testdata: allocation patterns inside and
// outside //laqy:hot kernels.
package a

import "fmt"

// Sink is an interface parameter target for boxing checks.
type Sink interface{ Put(v interface{}) }

// Kernel is a hot chunk loop with every allocation class the analyzer
// flags.
//
//laqy:hot
func Kernel(rows []int64, s Sink) string {
	var acc []int64 // unsized local
	out := ""
	for i, v := range rows {
		acc = append(acc, v)               // want `append to acc, a local slice with no pre-sized capacity`
		out = fmt.Sprintf("%s,%d", out, v) // want `fmt.Sprintf allocates inside a //laqy:hot function`
		s.Put(i)                           // want `argument boxes a concrete value into interface parameter 0`
	}
	return out
}

// KernelBoxed demonstrates the interface-conversion form of boxing.
//
//laqy:hot
func KernelBoxed(v int) interface{} {
	return interface{}(v) // want `conversion to interface type interface\{\} boxes its operand`
}

// KernelClean is hot but allocation-free: pre-sized locals, invariant
// panic, and an allowlisted cold prologue.
//
//laqy:hot
func KernelClean(rows []int64, width int) []int64 {
	if width <= 0 {
		// invariant: callers validate width at construction time.
		panic(fmt.Sprintf("hotalloc testdata: width %d", width))
	}
	err := fmt.Errorf("cold prologue %d", width) //laqy:allow hotalloc cold validation path
	_ = err
	acc := make([]int64, 0, len(rows))
	for _, v := range rows {
		acc = append(acc, v) // pre-sized: no finding
	}
	return acc
}

// Cold is NOT annotated: nothing is flagged even though it allocates.
func Cold(rows []int64) string {
	var acc []int64
	for _, v := range rows {
		acc = append(acc, v)
	}
	return fmt.Sprintf("%v", acc)
}

// KernelCompaction is the branchless selection shape added with the
// scan→sample overhaul: the output buffer is pre-grown once outside the
// loop and rows are written through a cursor — no append in the loop, so
// nothing is flagged.
//
//laqy:hot branchless compaction writes, no per-row allocation
func KernelCompaction(vec []int64, lo, hi int64, sel []int32) []int32 {
	if len(sel) < len(vec) {
		// invariant: callers pre-grow sel to the chunk size.
		panic(fmt.Sprintf("hotalloc testdata: sel %d < vec %d", len(sel), len(vec)))
	}
	n := 0
	width := uint64(hi - lo)
	for i := range vec {
		sel[n] = int32(i)
		if uint64(vec[i]-lo) <= width {
			n++
		}
	}
	return sel[:n]
}

// KernelBatchSink is the batch reservoir-admission shape: storage grows to
// a fixed capacity bound once (sized make, clean), then admissions copy in
// place. The unsized variant inside the loop is still flagged.
//
//laqy:hot batch admission sink
func KernelBatchSink(cols [][]int64, k, width int) []int64 {
	data := make([]int64, 0, k*width) // sized: no finding
	var spill []int64                 // unsized local
	for _, col := range cols {
		data = append(data, col...)
		spill = append(spill, col[0]) // want `append to spill, a local slice with no pre-sized capacity`
	}
	return data
}

// KernelRunWalk is a run-granular selection shape over run values and run
// starts: the selection buffer is pre-grown by the caller and each passing
// run fills through a cursor — no allocation per run. The unsized per-run
// spill is still flagged.
//
//laqy:hot run-granular producer
func KernelRunWalk(values []int64, starts []int32, rows int, lo, hi int64, sel []int32) []int32 {
	if len(sel) < rows {
		// invariant: callers pre-grow sel to the segment's row count.
		panic(fmt.Sprintf("hotalloc testdata: sel %d < rows %d", len(sel), rows))
	}
	var passed []int64 // unsized local
	n := 0
	width := uint64(hi - lo)
	for ri, v := range values {
		if uint64(v-lo) > width {
			continue
		}
		passed = append(passed, v) // want `append to passed, a local slice with no pre-sized capacity`
		end := rows
		if ri+1 < len(starts) {
			end = int(starts[ri+1])
		}
		for i := int(starts[ri]); i < end; i++ {
			sel[n] = int32(i)
			n++
		}
	}
	return sel[:n]
}

// KernelBitUnpack is the frame-of-reference bit-unpack shape: two-word
// reads, mask, one compare — register-only, nothing to flag.
//
//laqy:hot branchless bit-unpack kernel
func KernelBitUnpack(words []uint64, width uint, n int, shift, span uint64, sel []int32) []int32 {
	if len(sel) < n {
		// invariant: callers pre-grow sel to the chunk size.
		panic(fmt.Sprintf("hotalloc testdata: sel %d < n %d", len(sel), n))
	}
	mask := uint64(1)<<width - 1
	k := 0
	for i := 0; i < n; i++ {
		bit := uint(i) * width
		w, off := bit>>6, bit&63
		u := (words[w]>>off | words[w+1]<<(64-off)) & mask
		sel[k] = int32(i)
		if u-shift <= span {
			k++
		}
	}
	return sel[:k]
}
