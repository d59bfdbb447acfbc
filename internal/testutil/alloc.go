package testutil

import "runtime"

// AllocatedBy reports the bytes f allocates (the process's TotalAlloc across
// the call, so run nothing else meanwhile).
func AllocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
