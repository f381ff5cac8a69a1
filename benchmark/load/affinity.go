package load

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The loadgen and the sessiond child share one CPU for the length of a rep.
//
// On the 2-CPU reference VM a wake-up that crosses CPUs costs an
// inter-processor interrupt and an exit to the hypervisor, and the price of
// those exits drifts by 40 % over minutes while plain computation holds
// within 2 %: ten runs with the child on the other CPU spread 15–30 %
// (inter-quartile, of the median) on latency and CPU per op, ten runs on one
// CPU 5–7 %. Left to the scheduler the two processes flip between the two
// placements from run to run, a factor of two in CPU per op. So every thread
// of the loadgen is pinned to the first CPU the process may use, the child
// inherits that, and the loadgen runs one P. Where the kernel refuses,
// nothing is pinned: the run is noisier, not wrong.

// cpuSet is a sched_setaffinity mask: one bit per CPU, 1024 CPUs.
type cpuSet [16]uint64

func setAffinity(tid int, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinThreads moves every thread of this process onto set; threads and
// processes started later inherit it from the thread that starts them.
func pinThreads(set cpuSet) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			_ = setAffinity(tid, &set) // best effort, see above
		}
	}
}

// oneCPU confines the process to a single P on the first CPU it may use and
// returns the undo.
func oneCPU() (undo func()) {
	var allowed cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed)))
	if errno != 0 {
		return func() {}
	}
	var first cpuSet
	for w, bits := range allowed {
		if bits != 0 {
			first[w] = bits & -bits // lowest set bit
			break
		}
	}
	pinThreads(first)
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		pinThreads(allowed)
	}
}
