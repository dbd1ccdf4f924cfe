(** Shared serialization-graph machinery for the checkers: a graph
    builder over dense node numbers, and the iterative colored cycle
    search over its CSR form.

    Node encoding: transactions are their (positive) ids, the initial
    writer is 0, auxiliary commit-event chain nodes are negative. *)

type t

val create : unit -> t

(** Drop every node and edge, keeping the arrays for the next build. *)
val clear : t -> unit

(** [fresh g id] adds a node for original id [id] and returns its
    number (the count of nodes added before it). The caller keeps ids
    unique; {!add_node} and {!edge} do that with a hash table. *)
val fresh : t -> int -> int

(** Directed edge between two node numbers; self-loops are ignored. *)
val link : t -> int -> int -> unit

(** Add a node by original id, unless it is already there. *)
val add_node : t -> int -> unit

(** Directed edge by original ids, adding missing nodes (source
    first); self-loops are ignored and add no node. *)
val edge : t -> int -> int -> unit

(** First cycle found (in original node ids), or [None] if acyclic.
    Roots are searched newest node first, successors newest edge
    first. *)
val find_cycle : t -> int list option

(** ["init"], ["tx<n>"] or ["rt<n>"] per the node encoding. *)
val node_name : int -> string

(** Cycle witness rendered as ["a -> b -> c"]. *)
val describe_cycle : int list -> string
