(* A yardstick for the host's speed, in a process of its own.

   One pass of a fixed amount of work that shares no code with the
   simulator: it depends on Stdlib only, so no change to the simulator
   or its libraries can move its time, while whatever slows the host
   (another tenant on the same core or its caches, a lower clock)
   slows it too. Its mix is the simulator's: short-lived allocation,
   records promoted into a hash table of a few hundred thousand
   entries, a balanced map and a float priority heap. The pass is timed
   in [segments] segments of equal work; perfbench/run.py runs it
   before every repetition and scales host times by the sum of each
   segment's fastest time, as it times the simulator's own segments.

     yardstick.exe   prints the CPU seconds of each segment, on one line *)

module Imap = Map.Make (Int)

type entry = { key : int; hits : int; stamp : float }

let heap_cap = 4096
let segments = 32
let segment_iters = 8192

let pass () =
  let tbl = Hashtbl.create 16 in
  let m = ref Imap.empty in
  let heap = Array.make heap_cap 0.0 and hn = ref 0 in
  let push p =
    let i = ref !hn in
    incr hn;
    while !i > 0 && heap.((!i - 1) / 2) > p do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- p
  in
  let pop () =
    let top = heap.(0) in
    decr hn;
    let last = heap.(!hn) and i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !hn then fin := true
      else begin
        let c = if l + 1 < !hn && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else fin := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  let x = ref 0x2545F491 and acc = ref 0.0 in
  let times = Array.make segments 0.0 and t = ref (Sys.time ()) in
  for i = 1 to segments * segment_iters do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let key = !x land 1048575 in
    let hits = match Hashtbl.find_opt tbl key with Some e -> e.hits + 1 | None -> 0 in
    Hashtbl.replace tbl key { key; hits; stamp = float_of_int i };
    if i land 3 = 0 then m := Imap.add (key land 8191) i !m;
    if !hn = heap_cap then acc := !acc +. pop ();
    push (float_of_int (!x land 1048575));
    acc := !acc +. float_of_int (List.length [ key; hits; i ]);
    if i mod segment_iters = 0 then begin
      let t1 = Sys.time () in
      times.((i / segment_iters) - 1) <- t1 -. !t;
      t := t1
    end
  done;
  ignore (Sys.opaque_identity (!acc +. float_of_int (Hashtbl.length tbl + Imap.cardinal !m)));
  times

let () =
  print_endline (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6f") (pass ()))))
