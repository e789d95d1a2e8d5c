package workloads

// Micro returns the interpreter-throughput microbenchmarks: call-heavy
// kernels whose cost is dominated by the VM's frame setup/teardown and
// dispatch paths rather than by the modelled protection. They exist to
// measure the simulator itself (steps/sec, ns/step) — the denominator of
// every wall-clock number the evaluation reports.
func Micro() []Workload {
	return []Workload{
		{Name: "micro.fib", Lang: C, Src: srcFib},
		{Name: "micro.calls", Lang: C, Src: srcCalls},
		{Name: "micro.qsort", Lang: C, Src: srcQsort},
		{Name: "micro.sieve", Lang: C, Src: srcSieve},
	}
}

// micro.sieve — sieve of Eratosthenes over a global flag array: the
// branch-dense counterpoint to the call-heavy micros. Almost every dynamic
// step sits in one of three loops (initialization, the prime scan with its
// per-element conditional, and the composite-marking inner loop), so this
// workload measures straight-line and branchy loop execution — block-
// compiled traces and merged compare+branch pairs — with almost no call
// traffic at all.
const srcSieve = `
int flags[2048];

int sieve(int n) {
	int i;
	int j;
	int count = 0;
	for (i = 0; i < n; i++) {
		flags[i] = 1;
	}
	for (i = 2; i < n; i++) {
		if (flags[i]) {
			count++;
			for (j = i + i; j < n; j += i) {
				flags[j] = 0;
			}
		}
	}
	return count;
}

int main() {
	int r;
	int acc = 0;
	for (r = 0; r < 40; r++) {
		acc += sieve(2048);
	}
	// 309 primes below 2048, 40 rounds: 12360 % 251 = 61.
	return acc % 251;
}
`

// micro.calls — mutual recursion with near-empty bodies: the purest
// call-convention stress. Where fib interleaves an add and two loads of the
// accumulator between calls, ping/pong do nothing but test, decrement and
// call, so virtually every dynamic step is frame push/pop traffic — the
// workload that isolates the register calling convention's per-call cost.
const srcCalls = `
int pong(int n);

int ping(int n) {
	if (n == 0) return 0;
	return pong(n - 1) + 1;
}

int pong(int n) {
	if (n == 0) return 1;
	return ping(n - 1);
}

int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 4000; i++) {
		acc += ping(97) + pong(34);
	}
	return acc % 251;
}
`

// micro.fib — naive double recursion: the densest call/return workload
// expressible in mini-C. Nearly every step is a call, a return, or the
// branch between them, so steps/sec here is the ceiling on how fast the VM
// can push and pop frames.
const srcFib = `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}

int main() {
	int acc = 0;
	int i;
	for (i = 18; i < 23; i++) {
		acc += fib(i);
	}
	// fib(18..22) sums to 46366; keep the exit code in byte range.
	return acc % 251;
}
`

// micro.qsort — recursive quicksort over an int array: a call-heavy mix of
// compares, swaps through pointers, and partition recursion. Unlike fib it
// also exercises loads/stores between the calls.
const srcQsort = `
int arr[512];

void swap(int *a, int *b) {
	int t = *a;
	*a = *b;
	*b = t;
}

int partition(int *v, int lo, int hi) {
	int pivot = v[hi];
	int i = lo - 1;
	int j;
	for (j = lo; j < hi; j++) {
		if (v[j] < pivot) {
			i++;
			swap(&v[i], &v[j]);
		}
	}
	swap(&v[i + 1], &v[hi]);
	return i + 1;
}

void qsort_rec(int *v, int lo, int hi) {
	if (lo < hi) {
		int p = partition(v, lo, hi);
		qsort_rec(v, lo, p - 1);
		qsort_rec(v, p + 1, hi);
	}
}

int main() {
	int i;
	int rounds;
	int seed = 12345;
	int checksum = 0;
	for (rounds = 0; rounds < 6; rounds++) {
		for (i = 0; i < 512; i++) {
			seed = seed * 1103515245 + 12345;
			arr[i] = (seed >> 16) & 1023;
		}
		qsort_rec(arr, 0, 511);
		for (i = 1; i < 512; i++) {
			if (arr[i - 1] > arr[i]) return 1; // sorted?
		}
		checksum += arr[0] + arr[255] + arr[511];
	}
	return checksum % 251;
}
`
