external set_timer_slack_ns : int -> unit = "prelude_os_set_timer_slack_ns"
[@@noalloc]

external wait_readable_ns : Unix.file_descr -> int -> bool
  = "prelude_os_wait_readable"

let wait_readable fd ~timeout_ns = wait_readable_ns fd timeout_ns

external send_nowait : Unix.file_descr -> string -> int -> int -> int
  = "prelude_os_send_nowait"
