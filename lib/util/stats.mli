(** Running statistics, counters and windowed time series.

    Every architectural structure in the simulator (TLBs, caches, meshes,
    controllers) exposes its activity through these primitives so that
    experiments can be written against a uniform statistics surface. *)

(** Streaming mean/min/max/variance accumulator (Welford). *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  (** [min] of an empty accumulator is [nan]. *)

  val max : t -> float
  val total : t -> float
  val merge : t -> t -> t
  (** [merge a b] is a fresh accumulator equivalent to having seen both
      streams. *)
end

(** Named monotonically increasing event counters. *)
module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
end

(** Ratio of two counters, e.g. hits / accesses. *)
val hit_rate : hits:int -> total:int -> float

(** Fixed-width histogram over [0, range). Out-of-range samples clamp to the
    first/last bucket. *)
module Histogram : sig
  type t

  type summary = { p50 : float; p95 : float; p99 : float; max : float }
  (** Quantile digest of a histogram: bucket-midpoint approximations for
      the percentiles plus the exact largest raw sample. *)

  val create : buckets:int -> range:float -> t
  val of_counts : range:float -> max:float -> int array -> t
  (** A histogram over [0, range) with these bucket counts (copied) and
      exact maximum, for callers that bin their own samples. *)

  val add : t -> float -> unit
  val bucket_counts : t -> int array
  val count : t -> int

  val max : t -> float
  (** Exact largest sample seen (pre-clamping). [nan] when empty. *)

  val reset : t -> unit
  (** Empties the histogram (bucket counts, sample count, recorded max) so
      it can be reused for an independent measurement run. Percentile
      summaries of a reused, unreset histogram would smear the runs
      together. *)

  val percentile : t -> float -> float
  (** [percentile t p] approximates the [p]-th percentile ([0 <= p <= 100])
      using bucket midpoints. [nan] when empty. *)

  val summary : t -> summary
  (** p50/p95/p99 via {!percentile}; [max] is exact. All [nan] when
      empty. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh histogram equivalent to having seen both
      sample streams: bucket-wise count sums, summed totals, and the
      larger of the two exact maxima (an empty side contributes
      nothing). Both inputs must share bucket count and range — per-core
      serving histograms do by construction; anything else raises
      [Invalid_argument]. Inputs are left untouched. *)
end

(** Windowed time series: samples are bucketed by timestamp into fixed-width
    windows; used e.g. for the Fig. 4 TLB miss-rate-over-time plot. *)
module Series : sig
  type t

  val create : window:float -> t
  (** [window] is the bucket width in timestamp units (cycles). *)

  val add : t -> time:float -> float -> unit
  val windows : t -> (float * float) array
  (** [(window_start_time, mean_of_samples)] for every non-empty window in
      increasing time order. *)

  val window_totals : t -> (float * float * int) array
  (** [(window_start_time, sum_of_samples, n_samples)] per window. *)
end
