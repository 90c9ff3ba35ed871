package main

import (
	"math/rand"
)

// workload is one seeded input set the benchmark can run.
type workload struct {
	name     string
	threads  int
	ops      int   // operations per thread per round
	devBytes int64 // simulated device size
	// sizes describes the generated input for the report.
	sizes   string
	prepare func(e *env, seed int64) (instance, error)
}

var workloads = []*workload{
	{
		name: "meta-churn", threads: 2, ops: 25000, devBytes: 256 << 20,
		sizes:   "2 threads x 16 dirs x 256 names (8192 names, 80% present), Zipf s=1.1, stat/unlink/rename 2:1:1 on present names",
		prepare: prepareMetaChurn,
	},
	{
		name: "data-rw", threads: 2, ops: 25000, devBytes: 512 << 20,
		sizes:   "2 threads x 32 files x 4 MiB (256 MiB), 4 KiB ops 12:5:3 pread/overwrite/append, Zipf s=1.1 over each thread's 32768 blocks",
		prepare: prepareDataRW,
	},
	{
		name: "kv-lsm", threads: 1, ops: 40000, devBytes: 256 << 20,
		sizes:   "1 thread, 40000 keys, 64-192 B values, 256 KiB memtable, Zipf s=1.1, get/put/delete 5:4:1",
		prepare: prepareKVLSM,
	},
	{
		name: "perm-coffers", threads: 2, ops: 4000, devBytes: 256 << 20,
		sizes:   "2 threads x 256 names in a 0700 home, modes 0600/0640/0644/0660",
		prepare: preparePermCoffers,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// zipfPicker draws skewed ranks over n items and maps them through a seeded
// permutation, so the hot items are scattered over the namespace.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(rng *rand.Rand, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPicker) pick() int { return p.perm[p.z.Uint64()] }

// mix64 is the splitmix64 finalizer: the benchmark's content hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
