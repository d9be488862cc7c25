(* Unit and property tests for Ps_util: Vec, Iheap, Luby, Rng, Stats. *)

module Vec = Ps_util.Vec
module Iheap = Ps_util.Iheap
module Luby = Ps_util.Luby
module Rng = Ps_util.Rng
module Stats = Ps_util.Stats

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Vec --------------------------------------------------------------- *)

let test_vec_basic () =
  let v = Vec.create ~dummy:(-1) in
  check_bool "empty" true (Vec.is_empty v);
  Vec.push v 10;
  Vec.push v 20;
  Vec.push v 30;
  check "size" 3 (Vec.size v);
  check "get 0" 10 (Vec.get v 0);
  check "get 2" 30 (Vec.get v 2);
  check "last" 30 (Vec.last v);
  Vec.set v 1 99;
  check "set" 99 (Vec.get v 1);
  check "pop" 30 (Vec.pop v);
  check "size after pop" 2 (Vec.size v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] ~dummy:0 in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 3 out of bounds (size 3)")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec: index -1 out of bounds (size 3)")
    (fun () -> ignore (Vec.get v (-1)));
  let empty = Vec.create ~dummy:0 in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop empty));
  Alcotest.check_raises "last empty" (Invalid_argument "Vec.last: empty") (fun () ->
      ignore (Vec.last empty))

let test_vec_shrink_grow () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] ~dummy:0 in
  Vec.shrink v 2;
  check "shrink size" 2 (Vec.size v);
  Alcotest.check_raises "shrink larger" (Invalid_argument "Vec.shrink") (fun () ->
      Vec.shrink v 10);
  Vec.grow_to v 4 7;
  check "grow size" 4 (Vec.size v);
  check "grow fill" 7 (Vec.get v 3);
  check "grow keeps prefix" 1 (Vec.get v 0);
  Vec.clear v;
  check "clear" 0 (Vec.size v)

let test_vec_swap_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] ~dummy:0 in
  Vec.swap_remove v 1;
  check "size" 3 (Vec.size v);
  check "moved last" 4 (Vec.get v 1);
  (* removing the last element *)
  Vec.swap_remove v 2;
  check "size" 2 (Vec.size v);
  Alcotest.(check (list int)) "rest" [ 1; 4 ] (Vec.to_list v)

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] ~dummy:0 in
  check "fold sum" 10 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int)))
    "iteri" [ (0, 1); (1, 2); (2, 3); (3, 4) ] (List.rev !acc);
  check_bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check_bool "exists neg" false (Vec.exists (fun x -> x = 9) v);
  let c = Vec.copy v in
  Vec.set c 0 100;
  check "copy is independent" 1 (Vec.get v 0)

let vec_roundtrip =
  Helpers.qtest "vec of_list/to_list roundtrip" QCheck.(list int) (fun l ->
      Vec.to_list (Vec.of_list l ~dummy:0) = l)

let vec_push_pop_stack =
  Helpers.qtest "vec push/pop behaves as a stack" QCheck.(list small_int) (fun l ->
      let v = Vec.create ~dummy:0 in
      List.iter (Vec.push v) l;
      let popped = List.init (List.length l) (fun _ -> Vec.pop v) in
      popped = List.rev l && Vec.is_empty v)

(* --- Iheap ------------------------------------------------------------- *)

let test_iheap_order () =
  let scores = ref [| 5.0; 1.0; 9.0; 3.0; 7.0 |] in
  let h = Iheap.create ~score:scores in
  List.iter (Iheap.insert h) [ 0; 1; 2; 3; 4 ];
  check "size" 5 (Iheap.size h);
  let order = List.init 5 (fun _ -> Iheap.remove_max h) in
  Alcotest.(check (list int)) "descending score order" [ 2; 4; 0; 3; 1 ] order;
  check_bool "empty after" true (Iheap.is_empty h)

let test_iheap_mem_dup () =
  let h = Iheap.create ~score:(ref (Array.init 8 float_of_int)) in
  Iheap.insert h 3;
  Iheap.insert h 3;
  check "no duplicates" 1 (Iheap.size h);
  check_bool "mem" true (Iheap.mem h 3);
  check_bool "not mem" false (Iheap.mem h 5);
  Alcotest.check_raises "remove_max empty" Not_found (fun () ->
      let h = Iheap.create ~score:(ref [||]) in
      ignore (Iheap.remove_max h))

let test_iheap_decrease () =
  let scores = ref (Array.make 4 0.0) in
  let h = Iheap.create ~score:scores in
  List.iter (Iheap.insert h) [ 0; 1; 2; 3 ];
  !scores.(2) <- 10.0;
  Iheap.decrease h 2;
  check "bumped to top" 2 (Iheap.remove_max h);
  (* decrease of an absent element is a no-op *)
  Iheap.decrease h 2;
  check "size unchanged" 3 (Iheap.size h)

let test_iheap_rebuild () =
  let h = Iheap.create ~score:(ref (Array.init 8 float_of_int)) in
  List.iter (Iheap.insert h) [ 1; 2; 3 ];
  Iheap.rebuild h [ 5; 6 ];
  check "rebuilt size" 2 (Iheap.size h);
  check "rebuilt max" 6 (Iheap.remove_max h);
  check_bool "old gone" false (Iheap.mem h 1)

let iheap_sorts =
  Helpers.qtest "iheap removes in score order"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_bound 1000))
    (fun l ->
      let scores = Array.of_list (List.map float_of_int l) in
      let h = Iheap.create ~score:(ref scores) in
      List.iteri (fun i _ -> Iheap.insert h i) l;
      let out = List.init (Array.length scores) (fun _ -> Iheap.remove_max h) in
      let got = List.map (fun i -> scores.(i)) out in
      got = List.sort (fun a b -> compare b a) (Array.to_list scores))

(* The VSIDS pattern: pop the top, bump a few scores, put elements back.
   Once the tables have reached their size, none of it allocates. *)
let test_iheap_no_alloc () =
  let n = 1000 in
  let scores = ref (Array.init n (fun i -> float_of_int (i * 7919 mod n))) in
  let h = Iheap.create ~score:scores in
  for i = 0 to n - 1 do
    Iheap.insert h i
  done;
  let bump y =
    !scores.(y) <- !scores.(y) +. 1.5;
    Iheap.decrease h y
  in
  let ops () =
    for k = 0 to 2_499 do
      let x = Iheap.remove_max h in
      bump (k * 31 mod n);
      Iheap.insert h x;
      bump (k * 17 mod n)
    done
  in
  ops ();
  check "words allocated by 10,000 heap operations" 0 (Helpers.allocated_words ops);
  check "size kept" n (Iheap.size h)

(* The heap this module replaced: MiniSat's swap-based percolation over a
   closure score. The new heap must pop in exactly its order. *)
module Swap_heap = struct
  type t = { heap : int Vec.t; pos : int Vec.t; score : int -> float }

  let create ~score = { heap = Vec.create ~dummy:(-1); pos = Vec.create ~dummy:(-1); score }
  let size h = Vec.size h.heap
  let mem h x = x < Vec.size h.pos && Vec.get h.pos x >= 0
  let lt h a b = h.score a > h.score b

  let swap h i j =
    let a = Vec.get h.heap i and b = Vec.get h.heap j in
    Vec.set h.heap i b;
    Vec.set h.heap j a;
    Vec.set h.pos a j;
    Vec.set h.pos b i

  let rec percolate_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt h (Vec.get h.heap i) (Vec.get h.heap parent) then begin
        swap h i parent;
        percolate_up h parent
      end
    end

  let rec percolate_down h i =
    let n = size h in
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < n && lt h (Vec.get h.heap l) (Vec.get h.heap !best) then best := l;
    if r < n && lt h (Vec.get h.heap r) (Vec.get h.heap !best) then best := r;
    if !best <> i then begin
      swap h i !best;
      percolate_down h !best
    end

  let insert h x =
    if not (mem h x) then begin
      Vec.grow_to h.pos (x + 1) (-1);
      Vec.set h.pos x (size h);
      Vec.push h.heap x;
      percolate_up h (size h - 1)
    end

  let remove_max h =
    let top = Vec.get h.heap 0 in
    swap h 0 (size h - 1);
    ignore (Vec.pop h.heap);
    Vec.set h.pos top (-1);
    if size h > 0 then percolate_down h 0;
    top

  let decrease h x = if mem h x then percolate_up h (Vec.get h.pos x)
end

(* Random insert / remove_max / bump-and-decrease sequences over few
   distinct scores, so most comparisons are ties. *)
let iheap_matches_swap_heap =
  let n = 24 in
  let op =
    QCheck.Gen.(
      oneof
        [
          map (fun x -> `Insert x) (int_bound (n - 1));
          return `Pop;
          map2 (fun x d -> `Bump (x, d)) (int_bound (n - 1)) (int_bound 2);
        ])
  in
  Helpers.qtest ~count:300 "iheap pops in the swap-based heap's order"
    QCheck.(make Gen.(pair (array_size (return n) (int_bound 3)) (list_size (int_range 1 300) op)))
    (fun (init, ops) ->
      let scores = ref (Array.map float_of_int init) in
      let h = Iheap.create ~score:scores in
      let r = Swap_heap.create ~score:(fun x -> !scores.(x)) in
      List.for_all
        (function
          | `Insert x ->
            Iheap.insert h x;
            Swap_heap.insert r x;
            Iheap.size h = Swap_heap.size r
          | `Pop ->
            Iheap.is_empty h = (Swap_heap.size r = 0)
            && (Iheap.is_empty h || Iheap.remove_max h = Swap_heap.remove_max r)
          | `Bump (x, d) ->
            !scores.(x) <- !scores.(x) +. float_of_int d;
            Iheap.decrease h x;
            Swap_heap.decrease r x;
            Iheap.mem h x = Swap_heap.mem r x)
        ops
      && List.init (Iheap.size h) (fun _ -> Iheap.remove_max h)
         = List.init (Swap_heap.size r) (fun _ -> Swap_heap.remove_max r))

(* --- Luby -------------------------------------------------------------- *)

let test_luby_prefix () =
  Alcotest.(check (list int))
    "first 15 terms"
    [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ]
    (Luby.sequence 15)

let test_luby_bad () =
  Alcotest.check_raises "index 0" (Invalid_argument "Luby.luby: index must be >= 1")
    (fun () -> ignore (Luby.luby 0))

let luby_power_of_two =
  Helpers.qtest "luby terms are powers of two" QCheck.(int_range 1 5000) (fun i ->
      let x = Luby.luby i in
      x > 0 && x land (x - 1) = 0)

(* --- Rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let sa = List.init 20 (fun _ -> Rng.int a 1000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" sa sb;
  let c = Rng.create ~seed:43 in
  let sc = List.init 20 (fun _ -> Rng.int c 1000) in
  check_bool "different seed, different stream" true (sa <> sc)

let test_rng_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be > 0")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_shuffle_pick () =
  let rng = Rng.create ~seed:3 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle rng a;
  Alcotest.(check (list int))
    "shuffle is a permutation"
    (List.init 30 Fun.id)
    (List.sort compare (Array.to_list a));
  let xs = [ 1; 5; 9 ] in
  for _ = 1 to 50 do
    if not (List.mem (Rng.pick rng xs) xs) then Alcotest.fail "pick outside list"
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

let test_rng_split () =
  let rng = Rng.create ~seed:5 in
  let child = Rng.split rng in
  let s1 = List.init 10 (fun _ -> Rng.int rng 1000) in
  let s2 = List.init 10 (fun _ -> Rng.int child 1000) in
  check_bool "split stream differs" true (s1 <> s2)

(* --- Stats ------------------------------------------------------------- *)

let test_stats_counters () =
  let s = Stats.create () in
  check "missing counter" 0 (Stats.get s "x");
  Stats.incr s "x";
  Stats.incr s "x";
  Stats.add s "x" 3;
  check "x" 5 (Stats.get s "x");
  Stats.set_max s "m" 10;
  Stats.set_max s "m" 4;
  check "set_max keeps max" 10 (Stats.get s "m");
  Alcotest.(check (list (pair string int)))
    "counters sorted" [ ("m", 10); ("x", 5) ] (Stats.counters s)

let test_stats_timers_merge () =
  let s = Stats.create () in
  let r = Stats.time s "t" (fun () -> 41 + 1) in
  check "time returns result" 42 r;
  check_bool "timer accumulated" true (Stats.timer s "t" >= 0.0);
  let s2 = Stats.create () in
  Stats.add s2 "x" 7;
  Stats.merge ~into:s s2;
  check "merged counter" 7 (Stats.get s "x");
  check_bool "missing timer is 0" true (Stats.timer s "none" = 0.0)

let () =
  Alcotest.run "ps_util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "shrink/grow" `Quick test_vec_shrink_grow;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          vec_roundtrip;
          vec_push_pop_stack;
        ] );
      ( "iheap",
        [
          Alcotest.test_case "order" `Quick test_iheap_order;
          Alcotest.test_case "mem/dup" `Quick test_iheap_mem_dup;
          Alcotest.test_case "decrease" `Quick test_iheap_decrease;
          Alcotest.test_case "rebuild" `Quick test_iheap_rebuild;
          iheap_sorts;
          Alcotest.test_case "no allocation" `Quick test_iheap_no_alloc;
          iheap_matches_swap_heap;
        ] );
      ( "luby",
        [
          Alcotest.test_case "prefix" `Quick test_luby_prefix;
          Alcotest.test_case "bad index" `Quick test_luby_bad;
          luby_power_of_two;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle/pick" `Quick test_rng_shuffle_pick;
          Alcotest.test_case "split" `Quick test_rng_split;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "timers/merge" `Quick test_stats_timers_merge;
        ] );
    ]
