type stop = [ `Deadline | `Conflicts | `Cancelled ]

(* All mutable accounting is [Atomic.t] so one budget can be shared by
   solver instances running on several domains: workers charge their own
   consumption, every domain observes the same sticky stop reason, and
   whichever worker exhausts the budget first stops the rest through the
   shared state. On a single domain the atomics cost one uncontended
   fetch-and-add per charge — noise next to a CDCL conflict. *)
type t = {
  deadline : float option;           (* absolute gettimeofday instant *)
  max_conflicts : int option;
  cancel : (unit -> bool) option;
  limited : bool;
  conflicts : int Atomic.t;
  polls : int Atomic.t;
  stop : stop option Atomic.t;
}

type cancel_flag = bool Atomic.t

let cancel_flag () = Atomic.make false
let cancel flag = Atomic.set flag true
let cancel_requested flag = Atomic.get flag

(* Deadline / cancellation are polled once per [poll_grain] checks; the
   conflict limit is exact. *)
let poll_grain = 16

let make ?timeout_s ?conflicts ?cancel ?cancel_with () =
  let deadline =
    match timeout_s with
    | None -> None
    | Some s ->
      if s < 0.0 then invalid_arg "Budget.make: negative timeout";
      Some (Unix.gettimeofday () +. s)
  in
  let cancel =
    match (cancel, cancel_with) with
    | Some _, Some _ -> invalid_arg "Budget.make: both cancel and cancel_with"
    | Some f, None -> Some f
    | None, Some flag -> Some (fun () -> Atomic.get flag)
    | None, None -> None
  in
  let limited = deadline <> None || conflicts <> None || cancel <> None in
  {
    deadline;
    max_conflicts = conflicts;
    cancel;
    limited;
    conflicts = Atomic.make 0;
    polls = Atomic.make 0;
    stop = Atomic.make None;
  }

let tick_conflict t = Atomic.incr t.conflicts

let over limit spent = match limit with Some l -> spent >= l | None -> false

(* First writer wins: every later check (from any domain) returns the
   same reason. *)
let record_stop t s = ignore (Atomic.compare_and_set t.stop None (Some s))

let check t =
  match Atomic.get t.stop with
  | Some _ as s -> s
  | None ->
    if not t.limited then None
    else begin
      (* The conflict limit first: its exhaustion point is
         deterministic, so a conflict-budgeted rerun stops identically
         even if the clock would also have fired. *)
      let s =
        if over t.max_conflicts (Atomic.get t.conflicts) then Some `Conflicts
        else begin
          let polls = 1 + Atomic.fetch_and_add t.polls 1 in
          if polls land (poll_grain - 1) <> 0 then None
          else if
            match t.deadline with
            | Some d -> Unix.gettimeofday () >= d
            | None -> false
          then Some `Deadline
          else if match t.cancel with Some f -> f () | None -> false then
            Some `Cancelled
          else None
        end
      in
      (match s with Some s -> record_stop t s | None -> ());
      Atomic.get t.stop
    end

let stopped t = Atomic.get t.stop

let conflicts_spent t = Atomic.get t.conflicts

let stop_name : stop -> string = function
  | `Deadline -> "deadline"
  | `Conflicts -> "conflicts"
  | `Cancelled -> "cancelled"
