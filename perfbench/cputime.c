/* Process CPU time with nanosecond resolution. Sys.time reads getrusage,
   whose microsecond steps are a tenth of a percent of a 0.1 ms op. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_cputime(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
