(** Seeded chaos runs: one simulation under a randomized fault schedule
    derived from the seed, history-checked strictly, with a digest of
    the run's recorded spans for byte-identical replay verification. *)

type report = {
  protocol : string;
  seed : int;
  committed : int;
  gave_up : int;
  check : string;  (** the checker verdict, verbatim *)
  ok : bool;       (** the history check passed *)
  digest : string; (** {!Obs.Export.digest} of the run's recorded spans *)
  faults : Cluster.Faults.spec;  (** the schedule the seed produced *)
}

val base_default : Runner.config
(** The stock chaos base configuration (3 servers, 6 clients, strict
    check, 10 ms request timeout). *)

val config :
  ?allow_crashes:bool -> ?base:Runner.config -> seed:int -> unit -> Runner.config
(** The chaos configuration for [seed]: [base] (default: a small
    3-server/6-client cluster at moderate load with a 10 ms request
    timeout and strict checking) plus a {!Cluster.Faults.random}
    schedule. [allow_crashes] (default true) includes server crashes;
    pass false for protocols without failover. *)

val run :
  ?allow_crashes:bool ->
  ?base:Runner.config ->
  Protocol.t ->
  Workload_sig.t ->
  seed:int ->
  report
(** Run one chaos simulation. Same seed, same protocol, same workload
    => identical digest. *)

val run_matrix :
  ?jobs:int ->
  ?allow_crashes:bool ->
  ?base:Runner.config ->
  Protocol.t ->
  workload:(unit -> Workload_sig.t) ->
  seeds:int list ->
  report list
(** Run the whole seed matrix, across [jobs] domains when [jobs > 1]
    (default sequential). Each seed's run builds its own workload from
    the factory and is fully self-contained, so the report list is
    identical for any [jobs] and ordered like [seeds]. *)

val replay_command : protocol:string -> workload:string -> seed:int -> string
(** The shell command that reproduces the run for [seed]. *)

val pp_report : Format.formatter -> report -> unit
