/* poll(2) binding for the event-loop server.

   OCaml's Unix.select is select(2)-based and cannot watch descriptors
   numbered >= FD_SETSIZE (1024 on Linux) — a hard wall for a server
   meant to hold thousands of sockets. This stub exposes poll(2) over
   parallel int arrays so the OCaml side allocates nothing per call
   beyond what it already owns.

   Event/revent encoding shared with poll.ml: bit 0 = readable (POLLIN),
   bit 1 = writable (POLLOUT), bit 2 = error/hangup (POLLERR | POLLHUP |
   POLLNVAL). Returns the number of ready descriptors, or -1 when the
   call was interrupted by a signal (the OCaml side retries).

   Each thread keeps the CLOCK_MONOTONIC time at which its last poll(2)
   returned, taken before it asks for the runtime lock back, so the
   caller can time its wait for that lock (slicer_poll_since_return_ns).
   Thread-local, because one process can run several event loops. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <poll.h>
#include <stdlib.h>
#include <errno.h>
#include <stdint.h>
#include <time.h>

static __thread int64_t last_return_ns;

static int64_t monotonic_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Nanoseconds since this thread's last poll(2) returned. */
CAMLprim value slicer_poll_since_return_ns(value unit)
{
  (void)unit;
  return Val_long(monotonic_ns() - last_return_ns);
}

CAMLprim value slicer_poll_stub(value v_fds, value v_evs, value v_revs,
                                value v_n, value v_timeout_ms)
{
  CAMLparam5(v_fds, v_evs, v_revs, v_n, v_timeout_ms);
  int n = Int_val(v_n);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds;
  int i, ret, err;

  if (n < 0 || n > Wosize_val(v_fds) || n > Wosize_val(v_evs)
      || n > Wosize_val(v_revs))
    caml_invalid_argument("Poll.wait: inconsistent array sizes");
  pfds = (struct pollfd *)malloc(sizeof(struct pollfd) * (n > 0 ? n : 1));
  if (pfds == NULL) caml_raise_out_of_memory();
  for (i = 0; i < n; i++) {
    int ev = Int_val(Field(v_evs, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = (short)(((ev & 1) ? POLLIN : 0) | ((ev & 2) ? POLLOUT : 0));
    pfds[i].revents = 0;
  }
  caml_release_runtime_system();
  ret = poll(pfds, (nfds_t)n, timeout);
  err = errno;
  last_return_ns = monotonic_ns();
  caml_acquire_runtime_system();
  if (ret < 0) {
    free(pfds);
    if (err == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith("poll");
  }
  for (i = 0; i < n; i++) {
    int rv = 0;
    if (pfds[i].revents & POLLIN) rv |= 1;
    if (pfds[i].revents & POLLOUT) rv |= 2;
    if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) rv |= 4;
    /* immediate values: no caml_modify needed */
    Field(v_revs, i) = Val_int(rv);
  }
  free(pfds);
  CAMLreturn(Val_int(ret));
}
