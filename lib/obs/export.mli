(** Exporters over a {!Recorder}: Chrome trace_event JSON (loadable in
    Perfetto), a compact text timeline, and a structural validator.
    Output is deterministic (stable sort by timestamp, fixed float
    formatting) — golden-file tests compare the bytes. *)

(** Retained events stable-sorted by timestamp (ties keep emission
    order). *)
val sorted_events : Recorder.t -> Recorder.event list

(** The whole trace as a Chrome trace_event document: one process,
    one thread per node (named from the recorder's tracks), "X" for
    complete spans, "b"/"e" for async spans, "i" for instants;
    timestamps in microseconds of simulated time. *)
val chrome_trace : Recorder.t -> Jsonw.t

val chrome_trace_string : Recorder.t -> string

(** Human-readable timeline, one event per line ([last] trims to the
    final k events). *)
val timeline : ?last:int -> Recorder.t -> Format.formatter -> unit

(** Hex MD5 of the retained events in emission order (kind, name,
    cat, node, id, the IEEE bits of ts and dur, args) and
    {!Recorder.n_dropped}: the replay oracle of chaos runs. Equal
    digests mean the two recorders hold the same events. *)
val digest : Recorder.t -> string

type summary = {
  v_events : int;       (** total events *)
  v_complete : int;     (** complete spans *)
  v_async_pairs : int;  (** matched async begin/end pairs *)
  v_open : int;         (** async spans still open at the end *)
}

(** Check span invariants: finite nonnegative times, nonnegative
    durations, every async end matched to an earlier begin of the same
    (cat, id). Open spans at the end are an error unless [allow_open]
    (a trace truncated at the horizon legitimately leaves in-flight
    spans open). *)
val validate : ?allow_open:bool -> Recorder.t -> (summary, string) result
