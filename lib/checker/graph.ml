(* Shared serialization-graph machinery: the graph builder and the
   iterative colored cycle search. Both the post-hoc {!Rsg} checker and
   the streaming {!Stream} checker build their graphs through this
   module and search them with the same DFS, so a cycle witness means
   the same thing in both.

   Node encoding convention (shared with the checkers): transactions
   are their (positive) ids, the initial writer is 0, auxiliary
   commit-event chain nodes are negative.

   Nodes are numbered densely in order of first appearance and edges
   are appended to flat (src, dst) arrays. [find_cycle] turns the edge
   list into CSR arrays and searches those; nothing is hashed during
   the search and every array is scratch that survives [clear], so a
   caller that rebuilds a graph per epoch (the streaming checker)
   allocates only when the graph outgrows every earlier one. Callers
   that number their own nodes use [fresh]/[link]; {!Rsg} uses the
   id-keyed [add_node]/[edge], which map ids through a hash table.

   The search order is part of the output (it picks the witness, and
   the planted-anomaly goldens pin it): roots are visited newest node
   first, and each node's successors newest edge first, duplicates
   included. *)

type t = {
  index : (int, int) Hashtbl.t;  (* original id -> node, for add_node/edge *)
  mutable ids : int array;  (* node -> original id *)
  mutable n : int;
  mutable src : int array;  (* edge list, in insertion order *)
  mutable dst : int array;
  mutable m : int;
  (* search scratch *)
  mutable off : int array;  (* CSR offsets, n + 1 *)
  mutable adj : int array;  (* CSR successors, m *)
  mutable color : Bytes.t;  (* '\000' new, '\001' on stack, '\002' done *)
  mutable stack_n : int array;  (* DFS path: node *)
  mutable stack_p : int array;  (* DFS path: next successor position *)
}

let create () =
  {
    index = Hashtbl.create 16;
    ids = [||];
    n = 0;
    src = [||];
    dst = [||];
    m = 0;
    off = [||];
    adj = [||];
    color = Bytes.empty;
    stack_n = [||];
    stack_p = [||];
  }

let clear g =
  g.n <- 0;
  g.m <- 0;
  if Hashtbl.length g.index > 0 then Hashtbl.reset g.index

(* Room for [need] entries, doubling (scratch is never shrunk). *)
let grown a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let fresh g id =
  let i = g.n in
  g.ids <- grown g.ids (i + 1);
  g.ids.(i) <- id;
  g.n <- i + 1;
  i

let link g a b =
  if a <> b then begin
    let e = g.m in
    if e = Array.length g.src then begin
      g.src <- grown g.src (e + 1);
      g.dst <- grown g.dst (e + 1)
    end;
    g.src.(e) <- a;
    g.dst.(e) <- b;
    g.m <- e + 1
  end

let node g id =
  match Hashtbl.find_opt g.index id with
  | Some i -> i
  | None ->
    let i = fresh g id in
    Hashtbl.add g.index id i;
    i

let add_node g id = ignore (node g id)

let edge g a b =
  if a <> b then begin
    let i = node g a in
    link g i (node g b)
  end

(* CSR over the edge list: [off.(v)] .. [off.(v + 1)) are v's
   successors, newest edge first (edges are placed back to front from
   each node's end offset). *)
let build_csr g =
  let n = g.n and m = g.m in
  g.off <- grown g.off (n + 1);
  g.adj <- grown g.adj m;
  let off = g.off and adj = g.adj in
  Array.fill off 0 (n + 1) 0;
  for e = 0 to m - 1 do
    off.(g.src.(e)) <- off.(g.src.(e)) + 1
  done;
  for v = 1 to n - 1 do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  off.(n) <- m;
  for e = 0 to m - 1 do
    let s = g.src.(e) in
    off.(s) <- off.(s) - 1;
    adj.(off.(s)) <- g.dst.(e)
  done

(* Iterative colored DFS; returns the first cycle (in original node
   ids) or None. Done nodes persist across roots, memoizing "no cycle
   reachable from here" for the whole query. *)
let find_cycle g =
  build_csr g;
  let n = g.n in
  if Bytes.length g.color < n then
    g.color <- Bytes.create (max n (2 * Bytes.length g.color));
  Bytes.fill g.color 0 n '\000';
  g.stack_n <- grown g.stack_n n;
  g.stack_p <- grown g.stack_p n;
  let color = g.color and off = g.off and adj = g.adj in
  let stack_n = g.stack_n and stack_p = g.stack_p in
  let cycle = ref None in
  let root = ref (n - 1) in
  while Option.is_none !cycle && !root >= 0 do
    if Bytes.get color !root = '\000' then begin
      stack_n.(0) <- !root;
      stack_p.(0) <- off.(!root);
      Bytes.set color !root '\001';
      let sp = ref 1 in
      while Option.is_none !cycle && !sp > 0 do
        let top = !sp - 1 in
        let v = stack_n.(top) in
        let p = stack_p.(top) in
        if p >= off.(v + 1) then begin
          Bytes.set color v '\002';
          decr sp
        end
        else begin
          stack_p.(top) <- p + 1;
          let s = adj.(p) in
          match Bytes.get color s with
          | '\000' ->
            stack_n.(!sp) <- s;
            stack_p.(!sp) <- off.(s);
            Bytes.set color s '\001';
            incr sp
          | '\001' ->
            (* on stack: the cycle is the path suffix from s *)
            let j = ref top in
            while stack_n.(!j) <> s do
              decr j
            done;
            let c = ref [] in
            for k = top downto !j do
              (* ncc-lint: allow R18 — violation path only: materialises the witness cycle after a cycle is found *)
              c := g.ids.(stack_n.(k)) :: !c
            done;
            (* ncc-lint: allow R18 — violation path only: the checker stops at the first violation *)
            cycle := Some !c
          | _ -> ()
        end
      done
    end;
    decr root
  done;
  !cycle

let node_name n =
  if n = 0 then "init"
  else if n > 0 then Printf.sprintf "tx%d" n
  else Printf.sprintf "rt%d" (-n)

let describe_cycle cycle = String.concat " -> " (List.map node_name cycle)
