/* System calls the OCaml standard library does not bind: CPU affinity
   and the CPU-time clock of another process. Linux-only. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* The CPUs the process may run on before it pins itself. */
static cpu_set_t allowed;
static int allowed_known = 0;

/* Pins the calling process to the lowest-numbered CPU it may run on.
   Processes it spawns afterwards inherit the pin. Returns that CPU, or
   -1 when the system refuses. */
value perfbench_pin_first_cpu(value unit)
{
  cpu_set_t now, one;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof(now), &now) != 0) return Val_int(-1);
  if (!allowed_known) {
    allowed = now;
    allowed_known = 1;
  }
  for (cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_int(sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1);
    }
  }
  return Val_int(-1);
}

/* Lets the calling thread run on every CPU it was allowed before the
   first pin again. */
value perfbench_unpin(value unit)
{
  (void)unit;
  if (allowed_known) (void)sched_setaffinity(0, sizeof(allowed), &allowed);
  return Val_unit;
}

/* The CPU time, user and system, of every thread of process [pid] in
   nanoseconds, from its CPU-time clock; -1 when the system refuses.
   /proc/<pid>/stat counts the same time in ticks of 10 ms. */
value perfbench_process_cpu_ns(value pid)
{
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid(Int_val(pid), &clock) != 0) return caml_copy_int64(-1);
  if (clock_gettime(clock, &ts) != 0) return caml_copy_int64(-1);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
