external set_timer_slack_ns : int -> unit = "prelude_os_set_timer_slack_ns"
[@@noalloc]

external monotonic_ns : unit -> int = "prelude_os_monotonic_ns" [@@noalloc]
external sched_yield : unit -> unit = "prelude_os_sched_yield" [@@noalloc]

external send_nowait : Unix.file_descr -> string -> int -> int -> int
  = "prelude_os_send_nowait"

external stamp_arrivals : Unix.file_descr -> unit
  = "prelude_os_stamp_arrivals"
[@@noalloc]

external recv_aged_ : Unix.file_descr -> Bytes.t -> int -> int -> int array -> int
  = "prelude_os_recv_aged"

let recv_aged fd buf ofs len ~age =
  if ofs < 0 || len < 0 || ofs + len > Bytes.length buf || Array.length age < 1
  then invalid_arg "Os.recv_aged";
  recv_aged_ fd buf ofs len age

let pollin = 1
let pollout = 2
let pollerr = 4

external poll_ns :
  Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "prelude_os_poll"

let poll fds ~events ~revents ~count ~timeout_ns =
  if
    count < 0 || count > Array.length fds
    || count > Array.length events
    || count > Array.length revents
  then invalid_arg "Os.poll: count exceeds an array";
  poll_ns fds events revents count timeout_ns
