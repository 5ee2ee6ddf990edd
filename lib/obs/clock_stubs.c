/* Monotonic seconds for Obs.Clock.default.  CLOCK_MONOTONIC never steps
   under NTP or a manual clock change, so deadlines and span durations
   taken as differences of two reads stay meaningful; its epoch is
   arbitrary (typically boot), so the value is not a date. */

#include <time.h>
#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/alloc.h>

CAMLprim double pqc_monotonic_now(value unit) {
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + ((double)ts.tv_nsec * 1e-9);
}

CAMLprim value pqc_monotonic_now_byte(value unit) {
  return caml_copy_double(pqc_monotonic_now(unit));
}
