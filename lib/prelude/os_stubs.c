/* The OS calls Prelude.Os needs and the Unix library lacks.  See os.mli
   for the contracts. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <sched.h>
#include <time.h>
#include <sys/types.h>
#include <sys/socket.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#include <stdlib.h>
#include <string.h>
#include <sys/uio.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

value prelude_os_set_timer_slack_ns(value ns)
{
#if defined(__linux__) && defined(PR_SET_TIMERSLACK)
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#endif
  return Val_unit;
}

value prelude_os_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

value prelude_os_sched_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}

value prelude_os_send_nowait(value fd, value buf, value ofs, value len)
{
  int flags = MSG_DONTWAIT;
  ssize_t n;
#ifdef MSG_NOSIGNAL
  flags |= MSG_NOSIGNAL;
#endif
  n = send(Int_val(fd), String_val(buf) + Long_val(ofs), Long_val(len), flags);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_long(0);
    caml_uerror("send", Nothing);
  }
  return Val_long(n);
}

/* Arrival stamps: with SO_TIMESTAMPNS the kernel stamps each packet
   (CLOCK_REALTIME) as it arrives, and recvmsg hands the stamp of the
   last one read over as a control message.  [age] gets how long ago
   that was, read on the same clock right after the call, so the caller
   can place the arrival on its own clock; -1 when no stamp came (stamps
   off, or not Linux).  The socket is non-blocking and the runtime is
   never released, so [buf] cannot move under the call. */
value prelude_os_stamp_arrivals(value fd)
{
#ifdef SO_TIMESTAMPNS
  int one = 1;
  setsockopt(Int_val(fd), SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof one);
#else
  (void)fd;
#endif
  return Val_unit;
}

value prelude_os_recv_aged(value fd, value buf, value ofs, value len,
                           value age)
{
  struct iovec iov;
  struct msghdr msg;
  union {
    char b[CMSG_SPACE(sizeof(struct timespec))];
    struct cmsghdr align;
  } ctl;
  long a = -1;
  ssize_t n;
  iov.iov_base = Bytes_val(buf) + Long_val(ofs);
  iov.iov_len = Long_val(len);
  memset(&msg, 0, sizeof msg);
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = ctl.b;
  msg.msg_controllen = sizeof ctl.b;
  n = recvmsg(Int_val(fd), &msg, MSG_DONTWAIT);
  if (n < 0) caml_uerror("recvmsg", Nothing);
#ifdef SCM_TIMESTAMPNS
  {
    struct cmsghdr *c;
    for (c = CMSG_FIRSTHDR(&msg); c != NULL; c = CMSG_NXTHDR(&msg, c))
      if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
        struct timespec at, now;
        memcpy(&at, CMSG_DATA(c), sizeof at);
        clock_gettime(CLOCK_REALTIME, &now);
        a = (long)(now.tv_sec - at.tv_sec) * 1000000000L
            + (now.tv_nsec - at.tv_nsec);
        if (a < 0) a = 0;
      }
  }
#endif
  Field(age, 0) = Val_long(a);
  return Val_long(n);
}

/* Bits shared with os.ml: requested events and reported readiness. */
#define OS_IN 1
#define OS_OUT 2
#define OS_ERR 4

/* ppoll over the first [count] entries of caller-owned arrays: [fds] and
   [events] are read, [revents] is written.  The pollfd scratch lives on
   the C stack (heap only past 256 fds), so a call allocates nothing on
   the OCaml heap.  Returns the number of ready fds, 0 on timeout, -1 when
   a signal interrupted the wait (after running its OCaml handler).  The
   arguments are registered roots: while the wait has released the
   runtime, another thread's minor collection may move a young [revents],
   and the results must be written where it now lives. */
value prelude_os_poll(value fds, value events, value revents, value count,
                      value timeout_ns)
{
  CAMLparam5(fds, events, revents, count, timeout_ns);
  struct pollfd stack[256];
  struct pollfd *p = stack;
  long n = Long_val(count), ns = Long_val(timeout_ns), i;
  int r, err;
  if (n > 256) {
    p = malloc(n * sizeof(struct pollfd));
    if (p == NULL) caml_uerror("poll", Nothing);
  }
  for (i = 0; i < n; i++) {
    long ev = Long_val(Field(events, i));
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = (ev & OS_IN ? POLLIN : 0) | (ev & OS_OUT ? POLLOUT : 0);
    p[i].revents = 0;
  }
  caml_enter_blocking_section();
#ifdef __linux__
  if (ns < 0) {
    r = ppoll(p, n, NULL, NULL);
  } else {
    struct timespec ts;
    ts.tv_sec = ns / 1000000000L;
    ts.tv_nsec = ns % 1000000000L;
    r = ppoll(p, n, &ts, NULL);
  }
#else
  r = poll(p, n, ns < 0 ? -1 : (int)((ns + 999999L) / 1000000L));
#endif
  err = errno;
  caml_leave_blocking_section();
  for (i = 0; i < n; i++) {
    short re = p[i].revents;
    long out = 0;
    if (re & (POLLIN | POLLHUP | POLLERR)) out |= OS_IN;
    if (re & (POLLOUT | POLLHUP | POLLERR)) out |= OS_OUT;
    if (re & (POLLERR | POLLHUP | POLLNVAL)) out |= OS_ERR;
    Field(revents, i) = Val_long(out);
  }
  if (p != stack) free(p);
  if (r < 0) {
    if (err != EINTR) {
      errno = err;
      caml_uerror("ppoll", Nothing);
    }
    caml_process_pending_actions();
    CAMLreturn(Val_long(-1));
  }
  CAMLreturn(Val_long(r));
}
