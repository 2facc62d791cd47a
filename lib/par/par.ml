(* Frontend of netcalc.par: jobs resolution, chunking, deterministic
   result assembly and exception transport.  The execution strategy
   lives in Par_backend (Domain pool on OCaml 5, inline on 4.x). *)

let backend = Par_backend.name

let env_jobs =
  lazy
    (match Sys.getenv_opt "NETCALC_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> Some n
        | Some _ | None -> None))

let override =
  ref None
[@@lint.waive
    "cache-key: jobs override; Par results are bit-identical at any jobs \
     count (pinned by the determinism tests)"]
[@@lint.domain_safe
  "written by set_jobs/clear_jobs from the main domain during setup, before \
   any parallel region runs; workers never touch it (netcalc.par depends on \
   nothing, so Obs_sync is unavailable here)"]

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs must be >= 1";
  override := Some n

let clear_jobs () = override := None

let default_jobs () =
  match Lazy.force env_jobs with
  | Some n -> n
  | None -> max 1 (Par_backend.recommended_jobs ())

let jobs () = match !override with Some n -> n | None -> default_jobs ()

let mapi ?jobs:requested f xs =
  let jobs =
    match requested with Some n -> max 1 n | None -> jobs ()
  in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else if jobs <= 1 || n <= 1 || Par_backend.in_parallel () then
    List.mapi f xs
  else begin
    let out = Array.make n None in
    (* Exception transport is by smallest failing index, not by which
       domain's failure is observed first: a bare "first CAS wins"
       would surface a schedule-dependent exception.  Workers race to
       keep the minimum, and a chunk is only skipped when a failure
       strictly before its range is already recorded (such a chunk
       cannot produce a smaller index).  The raised exception is then
       the one the sequential run would raise, at any jobs count. *)
    let first_err : (int * exn) option Atomic.t = Atomic.make None in
    let record i e =
      let rec go () =
        match Atomic.get first_err with
        | Some (j, _) when j <= i -> ()
        | cur ->
            if not (Atomic.compare_and_set first_err cur (Some (i, e))) then
              go ()
      in
      go ()
    in
    (* Small chunks (several per worker) so an expensive cell — high
       utilization, many hops — does not leave the other domains idle;
       index-ordered assembly keeps the output deterministic anyway. *)
    let chunk = max 1 (n / (jobs * 4)) in
    let chunks = (n + chunk - 1) / chunk in
    let body c =
      let lo = c * chunk and hi = min n ((c + 1) * chunk) - 1 in
      let skip =
        match Atomic.get first_err with Some (j, _) -> j < lo | None -> false
      in
      if not skip then begin
        let i = ref lo in
        try
          while !i <= hi do
            out.(!i) <- Some (f !i arr.(!i));
            incr i
          done
        with e -> record !i e
      end
    in
    Par_backend.parallel_for ~jobs ~chunks body;
    (match Atomic.get first_err with Some (_, e) -> raise e | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) out)
  end

let map ?jobs f xs = mapi ?jobs (fun _ x -> f x) xs

let map_reduce ?jobs ~map:f ~reduce init xs =
  List.fold_left reduce init (map ?jobs f xs)
