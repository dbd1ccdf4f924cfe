(* Simulation core: heap ordering, engine semantics, RNG distributions
   and per-node clocks. *)

(* (priority, payload) of the minimum, removed; [None] when empty. *)
let heap_pop h =
  if Sim.Heap.is_empty h then None
  else begin
    let p = Sim.Heap.top_prio h in
    Some (p, Sim.Heap.pop_min h)
  end

let heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:300
    QCheck.(list (pair (float_range 0.0 100.0) small_nat))
    (fun entries ->
      let h = Sim.Heap.create () in
      List.iter (fun (p, v) -> Sim.Heap.push h p v) entries;
      let rec drain last acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (p, v) ->
          if p < last then raise Exit;
          drain p ((p, v) :: acc)
      in
      match drain neg_infinity [] with
      | popped -> List.length popped = List.length entries
      | exception Exit -> false)

(* Strictly stronger than the two tests above: the pop sequence is
   exactly the stable sort of the push sequence by priority, i.e. ties
   break by push order everywhere, not just in one hand-built case.
   Integer priorities on a small range force plenty of ties. *)
let heap_stable_sort =
  QCheck.Test.make ~name:"heap pop order = stable sort by (prio, push seq)"
    ~count:300
    QCheck.(list (pair (0 -- 10) small_nat))
    (fun entries ->
      let h = Sim.Heap.create () in
      List.iter (fun (p, v) -> Sim.Heap.push h (float_of_int p) v) entries;
      let rec drain acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (p, v) -> drain ((p, v) :: acc)
      in
      let expected =
        List.map
          (fun (p, v) -> (float_of_int p, v))
          (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) entries)
      in
      List.equal
        (fun (a, x) (b, y) -> Float.equal a b && Int.equal x y)
        expected (drain []))

let heap_fifo_on_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.push h 1.0 v) [ 1; 2; 3; 4; 5 ];
  let order =
    List.init 5 (fun _ -> match heap_pop h with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order preserved" [ 1; 2; 3; 4; 5 ] order

let engine_runs_in_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log);
  Sim.Engine.schedule e ~delay:0.1 (fun () ->
      log := 1 :: !log;
      (* events scheduled from events run in order too *)
      Sim.Engine.schedule e ~delay:0.1 (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "final time" 0.3 (Sim.Engine.now e)

let engine_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Sim.Engine.schedule e ~delay:3.0 (fun () -> incr fired);
  Sim.Engine.run ~until:2.0 e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.0 (Sim.Engine.now e)

let engine_stop () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:0.1 (fun () ->
      incr fired;
      Sim.Engine.stop e);
  Sim.Engine.schedule e ~delay:0.2 (fun () -> incr fired);
  Sim.Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired

let rng_deterministic () =
  let draw seed =
    let r = Sim.Rng.create seed in
    List.init 20 (fun _ -> Sim.Rng.int r 1000)
  in
  Alcotest.(check (list int)) "same seed same stream" (draw 7) (draw 7);
  Alcotest.(check bool) "different seeds differ" true (draw 7 <> draw 8)

let rng_split_independent () =
  (* drawing from a child must not perturb the parent stream *)
  let r1 = Sim.Rng.create 42 in
  let _c1 = Sim.Rng.split r1 in
  let a = List.init 10 (fun _ -> Sim.Rng.int r1 1000) in
  let r2 = Sim.Rng.create 42 in
  let c2 = Sim.Rng.split r2 in
  ignore (List.init 50 (fun _ -> Sim.Rng.int c2 1000));
  let b = List.init 10 (fun _ -> Sim.Rng.int r2 1000) in
  Alcotest.(check (list int)) "parent unaffected by child draws" a b

let exponential_mean =
  QCheck.Test.make ~name:"exponential has roughly the right mean" ~count:5
    QCheck.(1 -- 5)
    (fun scale ->
      let mean = float_of_int scale in
      let r = Sim.Rng.create (scale * 31) in
      let n = 20_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Sim.Rng.exponential r ~mean
      done;
      let emp = !sum /. float_of_int n in
      emp > 0.9 *. mean && emp < 1.1 *. mean)

let zipf_bounds =
  QCheck.Test.make ~name:"zipf draws stay in range" ~count:20
    QCheck.(2 -- 1000)
    (fun n ->
      let z = Sim.Rng.zipf_create ~n ~theta:0.8 in
      let r = Sim.Rng.create n in
      List.for_all
        (fun _ ->
          let k = Sim.Rng.zipf_draw r z in
          k >= 0 && k < n)
        (List.init 500 Fun.id))

let zipf_skew () =
  (* with theta = 0.8 the most popular key dominates a uniform share *)
  let n = 10_000 in
  let z = Sim.Rng.zipf_create ~n ~theta:0.8 in
  let r = Sim.Rng.create 5 in
  let hits = Hashtbl.create 64 in
  for _ = 1 to 50_000 do
    let k = Sim.Rng.zipf_draw r z in
    Hashtbl.replace hits k (1 + Option.value ~default:0 (Hashtbl.find_opt hits k))
  done;
  let top = Kernel.Detmap.fold_sorted (fun _ c acc -> max c acc) hits 0 in
  Alcotest.(check bool)
    "hot key well above uniform share" true
    (float_of_int top > 20.0 *. (50_000.0 /. float_of_int n))

let clock_skew_and_drift () =
  let c = Sim.Clock.make ~offset:0.5 ~drift:0.01 in
  Alcotest.(check (float 1e-9)) "at 0" 0.5 (Sim.Clock.read c ~now:0.0);
  Alcotest.(check (float 1e-9)) "at 100" (0.5 +. 100.0 +. 1.0) (Sim.Clock.read c ~now:100.0);
  Alcotest.(check int) "ns units" 500_000_000 (Sim.Clock.read_ns c ~now:0.0)

let suite =
  [
    Alcotest.test_case "heap fifo on ties" `Quick heap_fifo_on_ties;
    Alcotest.test_case "engine time order" `Quick engine_runs_in_time_order;
    Alcotest.test_case "engine horizon" `Quick engine_horizon;
    Alcotest.test_case "engine stop" `Quick engine_stop;
    Alcotest.test_case "rng deterministic" `Quick rng_deterministic;
    Alcotest.test_case "rng split independence" `Quick rng_split_independent;
    Alcotest.test_case "zipf skew" `Quick zipf_skew;
    Alcotest.test_case "clock skew and drift" `Quick clock_skew_and_drift;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ heap_pops_sorted; heap_stable_sort; exponential_mean; zipf_bounds ]
