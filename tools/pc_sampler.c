/* Opt-in sampling profiler, loaded with LD_PRELOAD.
 *
 * A POSIX timer on CLOCK_MONOTONIC fires every PC_SAMPLER_PERIOD_US
 * microseconds (default 50) and its signal handler records the
 * interrupted instruction pointer into a preallocated array. At exit the
 * library writes the executable mappings of the process and every sample
 * to PC_SAMPLER_OUT (default pc_samples.<pid>.txt), which
 * scripts/profile_self_time.sh symbolizes with addr2line into a self-time
 * table.
 *
 * Unlike a -pg build, nothing is instrumented: every sample lands where
 * the time was spent, so small inlined hot functions are charged their
 * real share. The timer is process-wide; profile single-threaded runs
 * (--jobs 1) so the samples all come from the simulating thread.
 *
 * Build: cc -O2 -shared -fPIC -o pc_sampler.so tools/pc_sampler.c
 * Run:   LD_PRELOAD=./pc_sampler.so PC_SAMPLER_OUT=s.txt CMD ARGS...
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20) /* 8 MiB: 52 s of samples at 50 us */

static uint64_t* samples;
static volatile sig_atomic_t count;
static volatile sig_atomic_t dropped;
static timer_t timer;
static int armed;
static pid_t owner; /* a forked child inherits `armed` but not the timer */
static long period_us = 50;

static void on_tick(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)uctx;
#if defined(__x86_64__)
  const uint64_t pc = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uint64_t pc = (uint64_t)uc->uc_mcontext.pc;
#else
#error "pc_sampler: unsupported architecture"
#endif
  if ((unsigned)count < MAX_SAMPLES) {
    samples[count] = pc;
    count = count + 1;
  } else {
    dropped = dropped + 1;
  }
}

__attribute__((constructor)) static void pc_sampler_start(void) {
  const char* p = getenv("PC_SAMPLER_PERIOD_US");
  if (p != NULL && atol(p) > 0) period_us = atol(p);
  samples = mmap(NULL, MAX_SAMPLES * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) {
    fprintf(stderr, "pc_sampler: cannot map the sample buffer\n");
    samples = NULL;
    return;
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
    fprintf(stderr, "pc_sampler: timer_create failed\n");
    return;
  }
  struct itimerspec its;
  its.it_interval.tv_sec = period_us / 1000000;
  its.it_interval.tv_nsec = (period_us % 1000000) * 1000;
  its.it_value = its.it_interval;
  timer_settime(timer, 0, &its, NULL);
  owner = getpid();
  armed = 1;
}

__attribute__((destructor)) static void pc_sampler_stop(void) {
  if (!armed || getpid() != owner) return;
  timer_delete(timer);
  armed = 0;
  char path[256];
  const char* out = getenv("PC_SAMPLER_OUT");
  if (out == NULL || out[0] == '\0') {
    snprintf(path, sizeof path, "pc_samples.%d.txt", (int)getpid());
    out = path;
  }
  FILE* f = fopen(out, "w");
  if (f == NULL) {
    fprintf(stderr, "pc_sampler: cannot write %s\n", out);
    return;
  }
  fprintf(f, "# pc_sampler period_us=%ld samples=%d dropped=%d\n", period_us,
          (int)count, (int)dropped);
  /* Executable mappings, so the symbolizer can turn a pc into a file
   * offset: "map <start> <end> <file offset> <path>". */
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) {
      unsigned long start, end, off;
      char perms[8], file[4096];
      file[0] = '\0';
      if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &start, &end, perms,
                 &off, file) >= 4 &&
          perms[2] == 'x' && file[0] == '/') {
        fprintf(f, "map %lx %lx %lx %s\n", start, end, off, file);
      }
    }
    fclose(maps);
  }
  for (int i = 0; i < (int)count; ++i) {
    fprintf(f, "%llx\n", (unsigned long long)samples[i]);
  }
  fclose(f);
}
