package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are small shared virtual machines
// whose speed is not constant: neighbours contend for cache, memory and
// the core itself, in bursts and in regimes that last minutes, and the
// same code's wall time moves by 10 to 30 % between runs taken minutes
// apart (measured; see ../README.md). No estimator inside one run can
// remove a regime that lasts longer than the run, so every set-up and
// every phase is accompanied by a speed probe — four fixed kernels run every
// probeEvery on a goroutine of their own — and every timing metric is
// reported at reference speed: divided by how much slower than nominal
// the probe ran during the same phase.
//
// The kernels cover the resources real code uses, in equal parts: a
// dependent integer chain (clock speed only), branchy high-throughput
// integer code (feels a busy sibling thread), a streaming read and a
// random-access chase over a buffer larger than any cache (feel the
// neighbours' memory traffic). They live here, in the benchmark, so no
// change to the system under test can move them.
const (
	probeEvery = 20 * time.Millisecond
	// probeNominal is what each kernel takes on the undisturbed reference
	// box; the kernel sizes below are chosen to make that so.
	probeNominal = 100 * time.Microsecond

	probeChainSteps = 72_000
	probeFormatInts = 2400
	probeStreamLen  = 80 << 10 // int64s read per probe
	probeChaseSteps = 400
	probeBufLen     = 4 << 20 // int64s: 32 MB, off the Go heap
)

const probeKernels = 4

var probeKernelNames = [probeKernels]string{"chain", "format", "stream", "chase"}

// speedProbe owns the probe's buffers and its cursor state.
type speedProbe struct {
	buf      []int64 // a single random cycle over its own indices
	raw      []byte  // the mapping behind buf
	stream   int
	chase    int
	scratch  []byte
	sortable []int
	sink     uint64
}

func newSpeedProbe() (*speedProbe, error) {
	raw, err := syscall.Mmap(-1, 0, probeBufLen*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe buffer: %w", err)
	}
	// The buffer is mapped, not allocated: on the Go heap it would be more
	// than twice hot_small's live data and would change how often the
	// collector runs in the system under test.
	buf := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(raw))), probeBufLen)
	p := &speedProbe{raw: raw, buf: buf, scratch: make([]byte, 0, 64<<10), sortable: make([]int, 512)}
	// Sattolo's shuffle: one cycle through every entry, so the chase
	// never falls into a short loop that fits a cache.
	for i := range p.buf {
		p.buf[i] = int64(i)
	}
	x := uint64(88172645463325252)
	for i := len(p.buf) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p.buf[i], p.buf[j] = p.buf[j], p.buf[i]
	}
	return p, nil
}

func (p *speedProbe) close() {
	if p != nil && p.raw != nil {
		syscall.Munmap(p.raw)
		p.raw, p.buf = nil, nil
	}
}

// once runs the four kernels and returns how long each took.
func (p *speedProbe) once() [probeKernels]time.Duration {
	t0 := time.Now()
	x := p.sink | 1
	for i := 0; i < probeChainSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	t1 := time.Now()
	out := p.scratch[:0]
	y := x | 1
	for i := 0; i < probeFormatInts; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
		out = strconv.AppendInt(out, int64(y>>20), 10)
		out = append(out, ',')
		p.sortable[i%len(p.sortable)] = int(y >> 40)
	}
	sort.Ints(p.sortable)
	t2 := time.Now()
	if p.stream+probeStreamLen > len(p.buf) {
		p.stream = 0
	}
	var sum int64
	for _, v := range p.buf[p.stream : p.stream+probeStreamLen] {
		sum += v
	}
	p.stream += probeStreamLen
	t3 := time.Now()
	c := p.chase
	for i := 0; i < probeChaseSteps; i++ {
		c = int(p.buf[c])
	}
	p.chase = c
	t4 := time.Now()
	p.sink = x + uint64(len(out)) + uint64(sum) + uint64(c)
	return [probeKernels]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)}
}

// probeRun is one stretch of probing, alongside a set-up or a timed phase.
type probeRun struct {
	p    *speedProbe
	stop chan struct{}
	wg   sync.WaitGroup
	read [probeKernels][]float64 // ns per reading
}

// start probes every probeEvery until the run is finished.
func (p *speedProbe) start() *probeRun {
	r := &probeRun{p: p, stop: make(chan struct{})}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				for k, d := range p.once() {
					r.read[k] = append(r.read[k], float64(d))
				}
			}
		}
	}()
	return r
}

// speed is what a stretch of probing found.
type speed struct {
	// Slowdown is how many times slower than nominal the machine ran:
	// the mean over the kernels of each kernel's median reading over
	// probeNominal. 1 is the undisturbed reference box.
	Slowdown float64 `json:"slowdown"`
	// KernelUs is each kernel's median reading.
	KernelUs [probeKernels]float64 `json:"kernel_us"`
	Readings int                   `json:"readings"`
}

// finish stops the probing and reports the speed it saw. A stretch too
// short for a single reading takes one now.
func (r *probeRun) finish() speed {
	close(r.stop)
	r.wg.Wait()
	if len(r.read[0]) == 0 {
		for k, d := range r.p.once() {
			r.read[k] = append(r.read[k], float64(d))
		}
	}
	s := speed{Readings: len(r.read[0])}
	for k := range r.read {
		m := median(r.read[k])
		s.KernelUs[k] = m / float64(time.Microsecond)
		s.Slowdown += m / float64(probeNominal) / probeKernels
	}
	return s
}

func (s speed) String() string {
	out := fmt.Sprintf("x%.3f of nominal (", s.Slowdown)
	for k, name := range probeKernelNames {
		if k > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s %.0fus", name, s.KernelUs[k])
	}
	return out + fmt.Sprintf("; %d readings)", s.Readings)
}
