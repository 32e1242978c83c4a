(** Log-bucketed latency histograms for the live runtime.

    Values are non-negative integers (microseconds by convention).  Buckets
    are log-linear, HdrHistogram-style: exact below 16, then 16 sub-buckets
    per power of two, so any recorded quantile is within ~6 % of the true
    value while the whole structure is one fixed 1040-slot array — O(1)
    record, no allocation, cheap {!merge} across shards and runs. *)

type t

val create : unit -> t
val add : t -> int -> unit
(** Record one sample; negative samples are clamped to 0. *)

val count : t -> int
val max_value : t -> int
(** Largest recorded sample, exact ([0] when empty). *)

val mean : t -> float

val percentile : t -> float -> int
(** [percentile t p] for [p ∈ [0, 100]]: an upper bound on the value at
    rank ⌈p/100·count⌉, exact to the bucket width (~6 %); the true maximum
    is returned for the last bucket.  [0] when empty. *)

val merge : t -> t -> t
(** New histogram with the samples of both (inputs unchanged). *)

val merge_into : into:t -> t -> unit
(** Accumulate [src]'s samples into [into] without allocating — the
    round-merge path of [Loadgen] and [Shard.Cluster]. *)

val bucket_of : int -> int
(** Bucket index a value falls into (exposed for tests). *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] value range of a bucket index (exposed for
    tests); [bucket_of v] always satisfies [lo <= v <= hi]. *)

val pp : Format.formatter -> t -> unit
(** One-line [n=… mean=… p50=… p90=… p99=… max=…] summary (µs). *)
