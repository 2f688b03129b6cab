(* The original decode-per-step interpreter, retained verbatim as the
   executable specification for the bytecode engine in {!Interp}.
   Every observable — output buffers, all sixteen counters, trap
   messages — must match between the two; test/test_interp_diff.ml
   enforces this differentially. Keep this file boring: bug fixes that
   change semantics must land in both engines deliberately. *)

open Types

type counters = Interp.counters = {
  mutable ialu : int;
  mutable fma : int;
  mutable fp_other : int;
  mutable ld_global : int;
  mutable st_global : int;
  mutable ld_shared : int;
  mutable st_shared : int;
  mutable atom : int;
  mutable bar : int;
  mutable branch : int;
  mutable pred : int;
  mutable mov : int;
  mutable predicated_off : int;
  mutable gld_transactions : int;
  mutable gst_transactions : int;
  mutable shared_transactions : int;
}

let zero_counters = Interp.zero_counters
let summary = Interp.summary

let trap fmt = Printf.ksprintf (fun s -> raise (Interp.Trap s)) fmt

(* Describe a pc as "pc N (k after label L)" so trap messages locate the
   faulting instruction in generator output without a disassembly. *)
let describe_pc (body : Instr.t array) pc =
  let rec nearest i =
    if i < 0 then None
    else
      match body.(i) with
      | { Instr.op = Instr.Label l; _ } -> Some (l, i)
      | _ -> nearest (i - 1)
  in
  match nearest (min pc (Array.length body - 1)) with
  | Some (l, lpc) when pc = lpc -> Printf.sprintf "pc %d (label %s)" pc l
  | Some (l, lpc) -> Printf.sprintf "pc %d (label %s + %d)" pc l (pc - lpc)
  | None -> Printf.sprintf "pc %d" pc

(* Per-thread architectural state. *)
type thread = {
  fregs : float array;
  iregs : int array;
  pregs : bool array;
  mutable pc : int;
  mutable done_ : bool;
  lin : int;  (* linear thread index within the block (lane = lin mod 32) *)
  tid : int * int * int;
  ctaid : int * int * int;
}

type stop = Hit_bar | Hit_ret

(* One shared-memory access group of the dynamic bank-conflict replay:
   the accesses issued by the lanes of one warp for one dynamic
   execution of one instruction. *)
type sgroup = {
  mutable s_addrs : int list;        (* distinct addresses seen *)
  mutable s_banks : (int * int) list; (* bank -> distinct-address count *)
  mutable s_passes : int;            (* serialized passes charged so far *)
}

let run ?(max_dynamic = 200_000_000) (p : Program.t) ~grid ~block ~bufs ~iargs =
  let gx, gy, gz = grid and bx, by, bz = block in
  if gx <= 0 || gy <= 0 || gz <= 0 || bx <= 0 || by <= 0 || bz <= 0 then
    trap "invalid launch geometry";
  let buffers =
    Array.map
      (fun name ->
        match List.assoc_opt name bufs with
        | Some a -> a
        | None -> trap "missing buffer argument %s" name)
      p.buf_params
  in
  let ints =
    Array.map
      (fun name ->
        match List.assoc_opt name iargs with
        | Some v -> v
        | None -> trap "missing int argument %s" name)
      p.int_params
  in
  let labels = Program.find_labels p in
  let body = p.body in
  let n_body = Array.length body in
  let counters = zero_counters () in
  (* Every trap raised during execution carries the counter totals
     accumulated up to the fault — the "hardware counter" snapshot that
     makes divergent or runaway kernels diagnosable post mortem. *)
  let trap_at pc fmt =
    Printf.ksprintf
      (fun s ->
        raise
          (Interp.Trap
             (Printf.sprintf "%s at %s [%s]" s (describe_pc body pc)
                (summary counters))))
      fmt
  in
  let trap_run fmt =
    Printf.ksprintf
      (fun s ->
        raise (Interp.Trap (Printf.sprintf "%s [%s]" s (summary counters))))
      fmt
  in
  let budget = ref max_dynamic in
  let charge () =
    decr budget;
    if !budget <= 0 then trap_run "dynamic instruction budget exhausted"
  in
  let is_half = p.dtype = F16 in
  let store_round v = if is_half then round_half v else v in
  (* One block's shared memory, reallocated per block. *)
  let run_block cx cy cz =
    let shared = Array.make (max 1 p.shared_words) 0.0 in
    let shared_i = Array.make (max 1 p.shared_int_words) 0 in
    let n_threads = bx * by * bz in
    let threads =
      Array.init n_threads (fun linear ->
        let tx = linear mod bx in
        let ty = linear / bx mod by in
        let tz = linear / (bx * by) in
        { fregs = Array.make (max 1 p.n_fregs) 0.0;
          iregs = Array.make (max 1 p.n_iregs) 0;
          pregs = Array.make (max 1 p.n_pregs) false;
          pc = 0; done_ = false;
          lin = linear;
          tid = (tx, ty, tz);
          ctaid = (cx, cy, cz) })
    in
    (* --- memory-transaction replay --------------------------------------
       Threads execute sequentially (thread 0 runs to the barrier before
       thread 1 starts), so warp-level coalescing is reconstructed after
       the fact: each lane's k-th dynamic execution of a memory
       instruction at a given pc joins access group (pc, warp, k). For
       global memory a group costs one transaction per distinct 32-word
       segment; for shared memory a group costs max-over-banks of the
       distinct-address count (equal addresses broadcast), the same rule
       as the static analyzer in {!Verify}. Groups are discarded at every
       barrier so memory stays proportional to one phase's traffic. The
       per-lane ordinal alignment is exact for warp-uniform trip counts
       (all kernels our generators emit) and an approximation under
       intra-warp loop divergence. *)
    let n_warps = (n_threads + 31) / 32 in
    let ordinals : (int, int array) Hashtbl.t = Hashtbl.create 64 in
    let gsegs : (int * int, int list ref) Hashtbl.t = Hashtbl.create 256 in
    let sgroups : (int * int, sgroup) Hashtbl.t = Hashtbl.create 256 in
    let access_group pc lin =
      let key = (pc * n_warps) + (lin lsr 5) in
      let lanes =
        match Hashtbl.find_opt ordinals key with
        | Some a -> a
        | None ->
          let a = Array.make 32 0 in
          Hashtbl.add ordinals key a;
          a
      in
      let lane = lin land 31 in
      let k = lanes.(lane) in
      lanes.(lane) <- k + 1;
      (key, k)
    in
    let record_global ~store lin pc addr =
      let g = access_group pc lin in
      let seg = addr asr 5 in
      let segs =
        match Hashtbl.find_opt gsegs g with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add gsegs g s;
          s
      in
      if not (List.mem seg !segs) then begin
        segs := seg :: !segs;
        if store then counters.gst_transactions <- counters.gst_transactions + 1
        else counters.gld_transactions <- counters.gld_transactions + 1
      end
    in
    let record_shared lin pc addr =
      let g = access_group pc lin in
      let grp =
        match Hashtbl.find_opt sgroups g with
        | Some grp -> grp
        | None ->
          let grp = { s_addrs = []; s_banks = []; s_passes = 0 } in
          Hashtbl.add sgroups g grp;
          grp
      in
      if not (List.mem addr grp.s_addrs) then begin
        grp.s_addrs <- addr :: grp.s_addrs;
        let bank = addr land 31 in
        let c = (match List.assoc_opt bank grp.s_banks with Some c -> c | None -> 0) + 1 in
        grp.s_banks <- (bank, c) :: List.remove_assoc bank grp.s_banks;
        if c > grp.s_passes then begin
          grp.s_passes <- c;
          counters.shared_transactions <- counters.shared_transactions + 1
        end
      end
    in
    let phase_reset () =
      Hashtbl.reset ordinals;
      Hashtbl.reset gsegs;
      Hashtbl.reset sgroups
    in
    let special th = function
      | Tid_x -> let x, _, _ = th.tid in x
      | Tid_y -> let _, y, _ = th.tid in y
      | Tid_z -> let _, _, z = th.tid in z
      | Ctaid_x -> let x, _, _ = th.ctaid in x
      | Ctaid_y -> let _, y, _ = th.ctaid in y
      | Ctaid_z -> let _, _, z = th.ctaid in z
      | Ntid_x -> bx | Ntid_y -> by | Ntid_z -> bz
      | Nctaid_x -> gx | Nctaid_y -> gy | Nctaid_z -> gz
    in
    let ival th = function
      | Ireg r -> th.iregs.(r)
      | Iimm v -> v
      | Iparam slot -> ints.(slot)
      | Ispecial s -> special th s
    in
    let fval th = function Freg r -> th.fregs.(r) | Fimm v -> v in
    let global_get ~pc slot addr =
      let buf = buffers.(slot) in
      if addr < 0 || addr >= Array.length buf then
        trap_at pc "%s: global load out of bounds: %s[%d] (len %d)" p.name
          p.buf_params.(slot) addr (Array.length buf);
      buf.(addr)
    in
    let global_set ~pc slot addr v =
      let buf = buffers.(slot) in
      if addr < 0 || addr >= Array.length buf then
        trap_at pc "%s: global store out of bounds: %s[%d] (len %d)" p.name
          p.buf_params.(slot) addr (Array.length buf);
      buf.(addr) <- v
    in
    let shared_get ~pc addr =
      if addr < 0 || addr >= p.shared_words then
        trap_at pc "%s: shared load out of bounds: [%d] (size %d)" p.name addr
          p.shared_words;
      shared.(addr)
    in
    let shared_set ~pc addr v =
      if addr < 0 || addr >= p.shared_words then
        trap_at pc "%s: shared store out of bounds: [%d] (size %d)" p.name addr
          p.shared_words;
      shared.(addr) <- v
    in
    let shared_i_get ~pc addr =
      if addr < 0 || addr >= p.shared_int_words then
        trap_at pc "%s: shared int load out of bounds: [%d] (size %d)" p.name
          addr p.shared_int_words;
      shared_i.(addr)
    in
    let shared_i_set ~pc addr v =
      if addr < 0 || addr >= p.shared_int_words then
        trap_at pc "%s: shared int store out of bounds: [%d] (size %d)" p.name
          addr p.shared_int_words;
      shared_i.(addr) <- v
    in
    (* Execute [th] until it reaches a barrier or returns. *)
    let run_to_barrier th =
      let rec step () =
        if th.pc >= n_body then
          trap_at (n_body - 1) "%s: fell off end of kernel" p.name;
        let { Instr.op; guard } = body.(th.pc) in
        match op with
        | Instr.Label _ -> th.pc <- th.pc + 1; step ()
        | _ ->
          charge ();
          let active =
            match guard with
            | None -> true
            | Some (preg, sense) -> th.pregs.(preg) = sense
          in
          if not active then begin
            counters.predicated_off <- counters.predicated_off + 1;
            (* Masked instructions still occupy an issue slot; count them in
               their category so static/dynamic cross-checks line up. *)
            (match Instr.categorize op with
             | Some Cat_ialu -> counters.ialu <- counters.ialu + 1
             | Some Cat_fma -> counters.fma <- counters.fma + 1
             | Some Cat_fp_other -> counters.fp_other <- counters.fp_other + 1
             | Some Cat_ld_global -> counters.ld_global <- counters.ld_global + 1
             | Some Cat_st_global -> counters.st_global <- counters.st_global + 1
             | Some Cat_ld_shared -> counters.ld_shared <- counters.ld_shared + 1
             | Some Cat_st_shared -> counters.st_shared <- counters.st_shared + 1
             | Some Cat_atom -> counters.atom <- counters.atom + 1
             | Some Cat_bar -> counters.bar <- counters.bar + 1
             | Some Cat_branch -> counters.branch <- counters.branch + 1
             | Some Cat_pred -> counters.pred <- counters.pred + 1
             | Some Cat_mov -> counters.mov <- counters.mov + 1
             | None -> ());
            th.pc <- th.pc + 1;
            step ()
          end
          else begin
            match op with
            | Instr.Label _ -> assert false
            | Mov (d, a) ->
              counters.mov <- counters.mov + 1;
              th.iregs.(d) <- ival th a;
              th.pc <- th.pc + 1; step ()
            | Movf (d, a) ->
              counters.mov <- counters.mov + 1;
              th.fregs.(d) <- fval th a;
              th.pc <- th.pc + 1; step ()
            | Iadd (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a + ival th b;
              th.pc <- th.pc + 1; step ()
            | Isub (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a - ival th b;
              th.pc <- th.pc + 1; step ()
            | Imul (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a * ival th b;
              th.pc <- th.pc + 1; step ()
            | Imad (d, a, b, c) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- (ival th a * ival th b) + ival th c;
              th.pc <- th.pc + 1; step ()
            | Idiv (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              let bv = ival th b in
              if bv = 0 then trap_at th.pc "%s: division by zero" p.name;
              th.iregs.(d) <- ival th a / bv;
              th.pc <- th.pc + 1; step ()
            | Irem (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              let bv = ival th b in
              if bv = 0 then trap_at th.pc "%s: remainder by zero" p.name;
              th.iregs.(d) <- ival th a mod bv;
              th.pc <- th.pc + 1; step ()
            | Imin (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- min (ival th a) (ival th b);
              th.pc <- th.pc + 1; step ()
            | Imax (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- max (ival th a) (ival th b);
              th.pc <- th.pc + 1; step ()
            | Ishl (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a lsl ival th b;
              th.pc <- th.pc + 1; step ()
            | Ishr (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a asr ival th b;
              th.pc <- th.pc + 1; step ()
            | Iand (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a land ival th b;
              th.pc <- th.pc + 1; step ()
            | Ior (d, a, b) ->
              counters.ialu <- counters.ialu + 1;
              th.iregs.(d) <- ival th a lor ival th b;
              th.pc <- th.pc + 1; step ()
            | Setp (cmp, d, a, b) ->
              counters.pred <- counters.pred + 1;
              th.pregs.(d) <- eval_cmp cmp (ival th a) (ival th b);
              th.pc <- th.pc + 1; step ()
            | And_p (d, a, b) ->
              counters.pred <- counters.pred + 1;
              th.pregs.(d) <- th.pregs.(a) && th.pregs.(b);
              th.pc <- th.pc + 1; step ()
            | Or_p (d, a, b) ->
              counters.pred <- counters.pred + 1;
              th.pregs.(d) <- th.pregs.(a) || th.pregs.(b);
              th.pc <- th.pc + 1; step ()
            | Not_p (d, a) ->
              counters.pred <- counters.pred + 1;
              th.pregs.(d) <- not th.pregs.(a);
              th.pc <- th.pc + 1; step ()
            | Fadd (d, a, b) ->
              counters.fp_other <- counters.fp_other + 1;
              th.fregs.(d) <- fval th a +. fval th b;
              th.pc <- th.pc + 1; step ()
            | Fsub (d, a, b) ->
              counters.fp_other <- counters.fp_other + 1;
              th.fregs.(d) <- fval th a -. fval th b;
              th.pc <- th.pc + 1; step ()
            | Fmul (d, a, b) ->
              counters.fp_other <- counters.fp_other + 1;
              th.fregs.(d) <- fval th a *. fval th b;
              th.pc <- th.pc + 1; step ()
            | Ffma (d, a, b, c) ->
              counters.fma <- counters.fma + 1;
              th.fregs.(d) <- (fval th a *. fval th b) +. fval th c;
              th.pc <- th.pc + 1; step ()
            | Fmax (d, a, b) ->
              counters.fp_other <- counters.fp_other + 1;
              th.fregs.(d) <- Float.max (fval th a) (fval th b);
              th.pc <- th.pc + 1; step ()
            | Fmin (d, a, b) ->
              counters.fp_other <- counters.fp_other + 1;
              th.fregs.(d) <- Float.min (fval th a) (fval th b);
              th.pc <- th.pc + 1; step ()
            | Ld_global (d, slot, addr) ->
              counters.ld_global <- counters.ld_global + 1;
              let a = ival th addr in
              record_global ~store:false th.lin th.pc a;
              th.fregs.(d) <- global_get ~pc:th.pc slot a;
              th.pc <- th.pc + 1; step ()
            | Ld_global_i (d, slot, addr) ->
              counters.ld_global <- counters.ld_global + 1;
              let a = ival th addr in
              record_global ~store:false th.lin th.pc a;
              th.iregs.(d) <- int_of_float (global_get ~pc:th.pc slot a);
              th.pc <- th.pc + 1; step ()
            | Ld_shared (d, addr) ->
              counters.ld_shared <- counters.ld_shared + 1;
              let a = ival th addr in
              record_shared th.lin th.pc a;
              th.fregs.(d) <- shared_get ~pc:th.pc a;
              th.pc <- th.pc + 1; step ()
            | Ld_shared_i (d, addr) ->
              counters.ld_shared <- counters.ld_shared + 1;
              let a = ival th addr in
              record_shared th.lin th.pc a;
              th.iregs.(d) <- shared_i_get ~pc:th.pc a;
              th.pc <- th.pc + 1; step ()
            | St_global (slot, addr, v) ->
              counters.st_global <- counters.st_global + 1;
              let a = ival th addr in
              record_global ~store:true th.lin th.pc a;
              global_set ~pc:th.pc slot a (store_round (fval th v));
              th.pc <- th.pc + 1; step ()
            | St_shared (addr, v) ->
              counters.st_shared <- counters.st_shared + 1;
              let a = ival th addr in
              record_shared th.lin th.pc a;
              shared_set ~pc:th.pc a (store_round (fval th v));
              th.pc <- th.pc + 1; step ()
            | St_shared_i (addr, v) ->
              counters.st_shared <- counters.st_shared + 1;
              let a = ival th addr in
              record_shared th.lin th.pc a;
              shared_i_set ~pc:th.pc a (ival th v);
              th.pc <- th.pc + 1; step ()
            | Atom_global_add (slot, addr, v) ->
              counters.atom <- counters.atom + 1;
              let a = ival th addr in
              global_set ~pc:th.pc slot a
                (store_round (global_get ~pc:th.pc slot a +. fval th v));
              th.pc <- th.pc + 1; step ()
            | Bra target ->
              counters.branch <- counters.branch + 1;
              (match Hashtbl.find_opt labels target with
               | Some idx -> th.pc <- idx
               | None -> trap_at th.pc "%s: undefined label %s" p.name target);
              step ()
            | Bar ->
              counters.bar <- counters.bar + 1;
              th.pc <- th.pc + 1;
              Hit_bar
            | Ret ->
              counters.branch <- counters.branch + 1;
              th.done_ <- true;
              Hit_ret
          end
      in
      step ()
    in
    (* Barrier-phase loop: all threads must agree on Hit_bar vs Hit_ret. *)
    let rec phases () =
      let where stop (th : thread) =
        (* After Hit_bar the pc has advanced past the Bar; Ret leaves it. *)
        match stop with
        | Hit_bar -> Printf.sprintf "hit barrier at %s" (describe_pc body (th.pc - 1))
        | Hit_ret -> Printf.sprintf "returned at %s" (describe_pc body th.pc)
      in
      let first = run_to_barrier threads.(0) in
      for i = 1 to n_threads - 1 do
        let stop = run_to_barrier threads.(i) in
        if stop <> first then
          trap_run "%s: barrier divergence: thread 0 %s but thread %d %s" p.name
            (where first threads.(0)) i (where stop threads.(i))
      done;
      phase_reset ();
      match first with Hit_ret -> () | Hit_bar -> phases ()
    in
    phases ()
  in
  for cz = 0 to gz - 1 do
    for cy = 0 to gy - 1 do
      for cx = 0 to gx - 1 do
        run_block cx cy cz
      done
    done
  done;
  counters
