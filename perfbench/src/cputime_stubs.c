/* CPU time of the whole process and of the calling thread, and
   confining the process to one CPU while it sets up a cluster.

   CLOCK_PROCESS_CPUTIME_ID sums every thread's time on a CPU.  It leaves
   out the time a hypervisor steals from a virtual CPU: a busy loop kept
   its iterations per CPU second while steal took a sixth of its wall
   time.  It does count a thread that waits, on its own CPU, for an
   interrupt to reach the other CPU, and that wait grows with steal. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_process_cputime_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

value perfbench_thread_cputime_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* the calling thread's CPUs before [perfbench_confine] */
static cpu_set_t saved;

/* Confines the calling thread to the CPU it runs on; the threads and
   processes it starts inherit that.  False when it cannot. */
value perfbench_confine(value unit)
{
  cpu_set_t one;
  int cpu = sched_getcpu();
  (void)unit;
  if (cpu < 0 || sched_getaffinity(0, sizeof saved, &saved) != 0)
    return Val_false;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
}

/* Gives thread [tid], of this process or a child, back the CPUs
   [perfbench_confine] saved. */
value perfbench_release(value tid)
{
  sched_setaffinity(Int_val(tid), sizeof saved, &saved);
  return Val_unit;
}
