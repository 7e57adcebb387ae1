package main

import (
	"math/rand"
	"time"

	"doubledecker/internal/cgroup"
	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
)

const (
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// hostSpec sizes the host caches; zero disables a tier.
type hostSpec struct {
	mem, ssd, remote int64
}

// vmSpec is one VM and the containers booted in it.
type vmSpec struct {
	memBytes   int64
	containers []containerSpec
}

// containerSpec is one container and the closed-loop threads running in
// it. newProfile builds the container's generator once the container
// exists; it allocates the file sets (set-up) and returns the per-op
// step.
type containerSpec struct {
	name       string
	limitBytes int64
	spec       cgroup.HCacheSpec
	threads    int
	newProfile func(rng *rand.Rand, c *guest.Container, io *guestIO) profile
}

// profile is a container's generator: step performs one op for thread t
// and returns its virtual latency and the think time before the thread's
// next op.
type profile struct {
	step func(now time.Duration, t int) (lat, think time.Duration)
	// load, when set, runs once before the threads start (a load phase)
	// and returns its virtual duration.
	load func(now time.Duration) time.Duration
}

// workloadSpec is one named benchmark workload: the host, the guests,
// the generators and the virtual-time schedule (warm-up, then a
// measured window).
type workloadSpec struct {
	name   string
	host   hostSpec
	vms    []vmSpec
	warmup time.Duration
	window time.Duration
}

var workloads = []workloadSpec{filebenchMix(), streamPipeline(), ycsbTiered()}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// fileSet allocates count files with sizes uniform in [mean-spread,
// mean+spread] blocks.
func fileSet(rng *rand.Rand, c *guest.Container, count int, mean, spread int64) []*fsmodel.File {
	files := make([]*fsmodel.File, count)
	for i := range files {
		files[i] = c.VM().Allocator().Alloc(mean - spread + rng.Int63n(2*spread+1))
	}
	return files
}

// fbScale shrinks the filebench-mix data sizes below the experiments'
// Table 2 geometry (itself the paper's scaled by 1/4). At the Table 2
// sizes the memory cache needs over 600 s of virtual time (20 s of host
// time) to fill; at 1/4 of them it fills in 150 s, so a run can set up
// several times. Thread counts and think times are unchanged.
const fbScale = 4

// filebenchMix is the paper's §5.1 DDMem scenario: one VM with four
// containers at equal weight sharing a memory cache, at 1/fbScale of the
// Table 2 geometry (2 GiB VM, 256 MiB containers, 768 MiB cache). The
// guest kernel's 64 MiB reserve is not scaled.
func filebenchMix() workloadSpec {
	ct := func(name string, threads int, p func(*rand.Rand, *guest.Container, *guestIO) profile) containerSpec {
		return containerSpec{
			name: name, limitBytes: 256 * mib / fbScale, threads: threads, newProfile: p,
			spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 25},
		}
	}
	return workloadSpec{
		name: "filebench-mix",
		host: hostSpec{mem: 768 * mib / fbScale},
		vms: []vmSpec{{memBytes: 64*mib + 2*gib/fbScale, containers: []containerSpec{
			ct("webserver", 4, webserver),
			ct("proxycache", 4, proxycache),
			ct("mail", 4, mail),
			ct("videoserver", 8, videoserver),
		}}},
		warmup: 150 * time.Second,
		window: 120 * time.Second,
	}
}

// webserver reads whole uniformly chosen files of a ~540/fbScale MiB
// set and appends 16 KiB to a log every 10th op.
func webserver(rng *rand.Rand, c *guest.Container, io *guestIO) profile {
	files := fileSet(rng, c, 4300/fbScale, 32, 16)
	log := c.VM().Allocator().Alloc(16384)
	var ops, logPos int64
	return profile{step: func(now time.Duration, _ int) (time.Duration, time.Duration) {
		f := files[rng.Intn(len(files))]
		lat := io.read(now, f, 0, f.Blocks)
		if ops++; ops%10 == 0 {
			lat += io.writeTx(now+lat, log, logPos, 4, false)
			logPos = (logPos + 4) % log.Blocks
		}
		return lat, time.Millisecond
	}}
}

// proxycache replaces one cached object (delete, recreate, write) and
// serves five uniformly chosen reads per op over a ~260/fbScale MiB set.
func proxycache(rng *rand.Rand, c *guest.Container, io *guestIO) profile {
	files := fileSet(rng, c, 8300/fbScale, 8, 4)
	return profile{step: func(now time.Duration, _ int) (time.Duration, time.Duration) {
		i := rng.Intn(len(files))
		lat := io.del(now, files[i])
		files[i] = c.VM().Allocator().Alloc(4 + rng.Int63n(9))
		lat += io.writeTx(now+lat, files[i], 0, files[i].Blocks, false)
		for range 5 {
			f := files[rng.Intn(len(files))]
			lat += io.read(now+lat, f, 0, f.Blocks)
		}
		return lat, 2 * time.Millisecond
	}}
}

// mail is the varmail flow over a ~305/fbScale MiB set: delete a mail,
// deliver a new one with fsync, read one, append to another with fsync
// and re-read it.
func mail(rng *rand.Rand, c *guest.Container, io *guestIO) profile {
	files := fileSet(rng, c, 13000/fbScale, 6, 3)
	return profile{step: func(now time.Duration, _ int) (time.Duration, time.Duration) {
		i := rng.Intn(len(files))
		lat := io.del(now, files[i])
		files[i] = c.VM().Allocator().Alloc(3 + rng.Int63n(7))
		lat += io.writeTx(now+lat, files[i], 0, files[i].Blocks, true)
		f := files[rng.Intn(len(files))]
		lat += io.read(now+lat, f, 0, f.Blocks)
		a := files[rng.Intn(len(files))]
		a.Blocks++
		lat += io.writeTx(now+lat, a, a.Blocks-1, 1, true)
		lat += io.read(now+lat, a, 0, a.Blocks)
		return lat, time.Millisecond
	}}
}

// videoserver streams 256 KiB chunks of two hot videos on seven threads
// (6% of streams re-read the latest written video) while one writer
// thread writes eight passive 128/fbScale MiB videos in turn. Reader t
// streams hot video t%2 from a random start. The hot videos are
// 160/fbScale MiB each, more than the container holds, so streams are
// served partly from the second-chance cache on every seed; at the
// Table 2 size (128/fbScale MiB each) the hot set fills the container
// exactly, and whether it stays resident swings with the seed.
func videoserver(rng *rand.Rand, c *guest.Container, io *guestIO) profile {
	const chunk = 64
	active := fileSet(rng, c, 2, 40960/fbScale, 0)
	passive := fileSet(rng, c, 8, 32768/fbScale, 0)
	pos := make([]int64, 8)
	for t := range pos {
		pos[t] = rng.Int63n(active[0].Blocks/chunk) * chunk
	}
	var wFile int
	var wBlock int64
	return profile{step: func(now time.Duration, t int) (time.Duration, time.Duration) {
		if t == 0 {
			f := passive[wFile]
			if wBlock+chunk > f.Blocks {
				wFile, wBlock = (wFile+1)%len(passive), 0
				f = passive[wFile]
			}
			lat := io.writeTx(now, f, wBlock, chunk, false)
			wBlock += chunk
			return lat, 5 * time.Millisecond // the writer's pace
		}
		if rng.Float64() < 0.06 {
			f := passive[(wFile+len(passive)-1)%len(passive)]
			return io.read(now, f, rng.Int63n(f.Blocks/chunk)*chunk, chunk), time.Millisecond
		}
		f := active[t%2]
		lat := io.read(now, f, pos[t], chunk)
		pos[t] = (pos[t] + chunk) % f.Blocks
		return lat, time.Millisecond
	}}
}

// streamPipeline is the read path alone: two VMs, each with one 16 MiB
// container streaming sequentially over its own 48 MiB file set, one
// thread each; the 128 MiB memory cache holds both sets.
func streamPipeline() workloadSpec {
	vm := vmSpec{memBytes: 96 * mib, containers: []containerSpec{{
		name: "stream", limitBytes: 16 * mib, threads: 1, newProfile: streamReader,
		spec: cgroup.HCacheSpec{Store: cgroup.StoreMem, Weight: 100},
	}}}
	return workloadSpec{
		name:   "stream-pipeline",
		host:   hostSpec{mem: 128 * mib},
		vms:    []vmSpec{vm, vm},
		warmup: 2 * time.Second,
		window: 2 * time.Second,
	}
}

// streamReader reads its file set front to back in 16–48 block chunks,
// wrapping around at the end.
func streamReader(rng *rand.Rand, c *guest.Container, io *guestIO) profile {
	files := fileSet(rng, c, 12, 1024, 256)
	var fi int
	var pos int64
	return profile{step: func(now time.Duration, _ int) (time.Duration, time.Duration) {
		f := files[fi]
		n := min(16+rng.Int63n(33), f.Blocks-pos)
		lat := io.read(now, f, pos, n)
		if pos += n; pos == f.Blocks {
			fi, pos = (fi+1)%len(files), 0
		}
		return lat, 10 * time.Microsecond
	}}
}

// ycsbTiered is the eviction and demotion ladder: a MongoDB-style store
// with a 384 MiB data file in a 48 MiB container of a 128 MiB VM, over
// a 32 MiB memory cache, a 64 MiB SSD cache and a 192 MiB remote tier.
func ycsbTiered() workloadSpec {
	return workloadSpec{
		name: "ycsb-tiered",
		host: hostSpec{mem: 32 * mib, ssd: 64 * mib, remote: 192 * mib},
		vms: []vmSpec{{memBytes: 128 * mib, containers: []containerSpec{{
			name: "mongodb", limitBytes: 48 * mib, threads: 2, newProfile: ycsb,
			spec: cgroup.HCacheSpec{Store: cgroup.StoreHybrid, Weight: 100},
		}}}},
		warmup: 600 * time.Second,
		window: 600 * time.Second,
	}
}

// ycsb loads the data file (write + fsync), then each op reads two
// blocks, half uniform and half zipf-popular, and 20% of ops update a
// zipf-popular block.
func ycsb(rng *rand.Rand, c *guest.Container, io *guestIO) profile {
	data := c.VM().Allocator().Alloc(384 * mib / fsmodel.BlockSize)
	zipf := rand.NewZipf(rng, 1.1, 16, uint64(data.Blocks-1))
	block := func() int64 {
		if rng.Intn(2) == 0 {
			return rng.Int63n(data.Blocks)
		}
		return int64(zipf.Uint64())
	}
	return profile{
		load: func(now time.Duration) time.Duration {
			var lat time.Duration
			for b := int64(0); b < data.Blocks; b += 256 {
				lat += io.c.Write(now+lat, data, b, min(256, data.Blocks-b))
			}
			return lat + io.c.Fsync(now+lat, data)
		},
		step: func(now time.Duration, _ int) (time.Duration, time.Duration) {
			lat := io.read(now, data, block(), 1)
			lat += io.read(now+lat, data, block(), 1)
			if rng.Intn(5) == 0 {
				lat += io.writeTx(now+lat, data, int64(zipf.Uint64()), 1, false)
			}
			return lat, 1500 * time.Microsecond
		},
	}
}
