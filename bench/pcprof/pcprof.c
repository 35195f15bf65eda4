/* pcprof: a program-counter sampler loaded with LD_PRELOAD.

     LD_PRELOAD=_build/default/bench/pcprof/pcprof.so PCPROF_OUT=pcs.txt \
       _build/default/perfbench/benchmark.exe --workload replay-full-table
     python3 bench/pcprof/report.py _build/default/perfbench/benchmark.exe pcs.txt

   The constructor arms ITIMER_PROF; every SIGPROF appends the
   interrupted instruction pointer to a static buffer. The handler
   allocates nothing and calls nothing, so a sample lands on the
   instruction the CPU was executing, in OCaml code or in C, not at
   the next OCaml poll point as a Sys.sigprof handler would. At exit
   the destructor writes one hex offset a line into the main
   executable (the sampled address minus its load bias) to
   $PCPROF_OUT; samples outside the executable (libc, the kernel's
   vdso) keep their raw address. One sample is taken per PERIOD_US
   microseconds of process CPU time.

   The handler runs with SA_ONSTACK, on the alternate signal stack the
   OCaml runtime sets up for each thread. OCaml 5 runs OCaml code on
   small runtime-allocated fiber stacks with only a few hundred bytes
   of slack below the lowest frame, and the kernel's signal frame
   (with the saved vector registers, a few KB) pushed at the
   interrupted stack pointer could overwrite the memory below one.

   Only the process it is preloaded into is sampled: the constructor
   drops LD_PRELOAD from the environment, so children run unsampled.
   Preload it into the program itself, not a launcher: an exec keeps
   the armed timer but resets the handler, so a launcher that execs
   the program (a shell shim) dies of the first SIGPROF, and one that
   forks it (timeout) is the only process sampled.
   Linux/amd64 only: it reads REG_RIP from the signal context. */

#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 21)
#define PERIOD_US 1000

static uintptr_t samples[MAX_SAMPLES];
static size_t n_samples;
static size_t n_dropped;
static pid_t owner;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  uintptr_t pc = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
  /* SIGPROF may land on any thread of the process */
  size_t i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES)
    samples[i] = pc;
  else
    __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
}

__attribute__((constructor)) static void pcprof_start(void) {
  unsetenv("LD_PRELOAD");
  if (getenv("PCPROF_OUT") == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct itimerval it;
  it.it_interval.tv_sec = PERIOD_US / 1000000;
  it.it_interval.tv_usec = PERIOD_US % 1000000;
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_PROF, &it, NULL) == 0) owner = getpid();
}

/* The main executable's load bias and the address range of its
   loaded segments; it is the first object dl_iterate_phdr reports. */
struct image {
  uintptr_t bias, lo, hi;
};

static int main_image(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  struct image *im = data;
  im->bias = (uintptr_t)info->dlpi_addr;
  im->lo = UINTPTR_MAX;
  im->hi = 0;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    uintptr_t start = im->bias + ph->p_vaddr;
    if (start < im->lo) im->lo = start;
    if (start + ph->p_memsz > im->hi) im->hi = start + ph->p_memsz;
  }
  return 1;
}

__attribute__((destructor)) static void pcprof_stop(void) {
  if (owner == 0 || owner != getpid()) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  struct image im = {0, 0, 0};
  dl_iterate_phdr(main_image, &im);
  FILE *f = fopen(getenv("PCPROF_OUT"), "w");
  if (f == NULL) {
    perror("pcprof: PCPROF_OUT");
    return;
  }
  size_t n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
  for (size_t i = 0; i < n; i++) {
    uintptr_t pc = samples[i];
    fprintf(f, "%lx\n", (unsigned long)(pc >= im.lo && pc < im.hi ? pc - im.bias : pc));
  }
  fclose(f);
  if (n_dropped > 0)
    fprintf(stderr, "pcprof: buffer full, %zu samples dropped\n", n_dropped);
}
