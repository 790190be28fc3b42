/* The system page size, which /proc/self/statm counts in. */

#include <caml/mlvalues.h>
#include <unistd.h>

value slicer_page_size(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_PAGESIZE));
}
