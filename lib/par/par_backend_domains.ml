(* Domain-based work pool (OCaml >= 5.0 backend of netcalc.par).

   Design: a process-global pool of worker domains blocked on a
   condition variable, woken by bumping a generation counter that
   points them at the current job.  A job is a bag of chunk indices
   drained through an atomic cursor, so scheduling is dynamic (good
   load balance for irregular analyses) while the caller assembles
   results by index, keeping output deterministic.

   Invariants that make this simple rather than subtle:
   - [submit_lock] serializes top-level parallel_for calls, so at most
     one job is ever live and the single [job]/[generation] slot
     cannot be overwritten while workers still need it (the caller
     only returns once [pending] hits 0, i.e. every chunk body has
     finished).
   - Nested calls never reach the pool: Par checks [in_parallel] and
     runs them inline on whichever domain is executing the chunk.
   - Workers that wake late for a finished job find the chunk cursor
     exhausted, do nothing, and go back to waiting for the next
     generation.
   - The pool is shut down (and every domain joined) from an [at_exit]
     hook; without it the OCaml runtime would wait forever at process
     exit for domains blocked in [Condition.wait]. *)

type job = {
  body : int -> unit; (* chunk body; must not raise (Par guarantees) *)
  chunks : int;
  cursor : int Atomic.t; (* next chunk index to claim *)
  pending : int Atomic.t; (* chunks not yet completed *)
  tickets : int Atomic.t; (* helper admission (bounds active workers) *)
  max_helpers : int;
  done_m : Mutex.t;
  done_c : Condition.t;
}

let name = "domains"
let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* Domain-local "am I inside a chunk body" flag, read by Par to run
   nested parallel calls inline. *)
let in_par_key = Domain.DLS.new_key (fun () -> ref false)
let in_parallel () = !(Domain.DLS.get in_par_key)

let run_chunks j =
  let flag = Domain.DLS.get in_par_key in
  flag := true;
  let rec go () =
    let c = Atomic.fetch_and_add j.cursor 1 in
    if c < j.chunks then begin
      j.body c;
      (* Completion count; the domain finishing the last chunk wakes
         the submitter.  The broadcast happens under [done_m] so the
         submitter cannot check-then-sleep between our decrement and
         our signal (no lost wakeup). *)
      if Atomic.fetch_and_add j.pending (-1) = 1 then begin
        Mutex.lock j.done_m;
        Condition.broadcast j.done_c;
        Mutex.unlock j.done_m
      end;
      go ()
    end
  in
  go ();
  flag := false

(* ---- the pool ---------------------------------------------------- *)

let pool_m = Mutex.create ()
let pool_c = Condition.create ()

(* The pool state below is guarded by [pool_m] directly: netcalc.par
   sits at the bottom of the dependency stack and must not depend on
   netcalc.obs, so Obs_sync (which the lint race rule looks for) is not
   available here.  Each binding carries a waiver saying which raw
   mutex protects it. *)
let current : job option ref = ref None
[@@lint.domain_safe "read/written under pool_m (raw Mutex; see above)"]

let generation = ref 0
[@@lint.domain_safe "read/written under pool_m (raw Mutex; see above)"]
[@@lint.waive
    "cache-key: pool bookkeeping; Par results are bit-identical at any jobs \
     count (pinned by the determinism tests)"]

let live = ref true
[@@lint.waive
    "cache-key: pool bookkeeping; Par results are bit-identical at any jobs \
     count (pinned by the determinism tests)"]
[@@lint.domain_safe
  "written under pool_m; the one unlocked read in parallel_for is a benign \
   monotone check (false only after shutdown, when falling back to the \
   sequential loop is exactly right)"]

let workers : unit Domain.t list ref = ref []
[@@lint.domain_safe "read/written under pool_m (raw Mutex; see above)"]

let pool_size = ref 0
[@@lint.domain_safe "read/written under pool_m (raw Mutex; see above)"]
[@@lint.waive
    "cache-key: worker-pool size; Par results are bit-identical at any \
     jobs count (pinned by the determinism tests)"]

let worker () =
  let seen = ref 0 in
  Mutex.lock pool_m;
  let rec loop () =
    while !live && !generation = !seen do
      Condition.wait pool_c pool_m
    done;
    if not !live then Mutex.unlock pool_m
    else begin
      seen := !generation;
      let j = Option.get !current in
      Mutex.unlock pool_m;
      (* Admission ticket: a pool larger than the job's [jobs] budget
         must not throw every worker at it. *)
      if Atomic.fetch_and_add j.tickets 1 < j.max_helpers then run_chunks j;
      Mutex.lock pool_m;
      loop ()
    end
  in
  loop ()

let shutdown () =
  Mutex.lock pool_m;
  live := false;
  Condition.broadcast pool_c;
  Mutex.unlock pool_m;
  List.iter Domain.join !workers;
  workers := [];
  pool_size := 0

let ensure_workers n =
  Mutex.lock pool_m;
  if !live && n > !pool_size then begin
    if !pool_size = 0 then Stdlib.at_exit shutdown;
    for _ = 1 to n - !pool_size do
      workers := Domain.spawn worker :: !workers
    done;
    pool_size := n
  end;
  Mutex.unlock pool_m

(* Serializes top-level submissions (see header). *)
let submit_lock = Mutex.create ()

let parallel_for ~jobs ~chunks body =
  if chunks <= 0 then ()
  else if jobs <= 1 || chunks = 1 || not !live then
    for c = 0 to chunks - 1 do
      body c
    done
  else begin
    Mutex.lock submit_lock;
    let finally () = Mutex.unlock submit_lock in
    match
      let helpers = min (jobs - 1) (chunks - 1) in
      ensure_workers helpers;
      let j =
        {
          body;
          chunks;
          cursor = Atomic.make 0;
          pending = Atomic.make chunks;
          tickets = Atomic.make 0;
          max_helpers = helpers;
          done_m = Mutex.create ();
          done_c = Condition.create ();
        }
      in
      Mutex.lock pool_m;
      current := Some j;
      incr generation;
      Condition.broadcast pool_c;
      Mutex.unlock pool_m;
      (* The submitter is a full participant, not just a waiter. *)
      run_chunks j;
      Mutex.lock j.done_m;
      while Atomic.get j.pending > 0 do
        Condition.wait j.done_c j.done_m
      done;
      Mutex.unlock j.done_m
    with
    | () -> finally ()
    | exception e ->
        (* unreachable in practice: [body] never raises *)
        finally ();
        raise e
  end
