/* Pin the calling thread, and so every process it spawns afterwards, to
   the highest-numbered CPU it may run on. Returns that CPU, or -1 when
   the affinity cannot be read or set. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value dps_bench_pin_last_cpu(value unit)
{
  (void)unit;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  int cpu = -1;
  for (int i = CPU_SETSIZE - 1; i >= 0 && cpu < 0; i--)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
