module Sym = Dataflow.Sym
module IS = Set.Make (Int)

type kind =
  | Structure
  | Use_before_def
  | Barrier_divergence
  | Shared_race
  | Shared_bounds
  | Unanalyzable
  | Dead_store
  | Unread_register
  | Unreachable_code
  | Redundant_barrier

let kind_name = function
  | Structure -> "structure"
  | Use_before_def -> "use-before-def"
  | Barrier_divergence -> "barrier-divergence"
  | Shared_race -> "shared-race"
  | Shared_bounds -> "shared-bounds"
  | Unanalyzable -> "unanalyzable"
  | Dead_store -> "dead-store"
  | Unread_register -> "unread-register"
  | Unreachable_code -> "unreachable-code"
  | Redundant_barrier -> "redundant-barrier"

type diag = {
  kind : kind;
  pc : int option;
  message : string;
}

type bank_stats = {
  sites : int;
  transactions : int;
  conflicted : int;
  conflict_factor : float;
}

type report = {
  errors : diag list;
  warnings : diag list;
  bank : bank_stats;
}

let ok r = r.errors = []

let neutral_bank = { sites = 0; transactions = 0; conflicted = 0; conflict_factor = 1.0 }

let pp_diag d =
  let loc = match d.pc with Some pc -> Printf.sprintf " @%d" pc | None -> "" in
  Printf.sprintf "[%s]%s %s" (kind_name d.kind) loc d.message

let to_string r =
  let b = Buffer.create 256 in
  List.iter (fun d -> Buffer.add_string b ("error " ^ pp_diag d ^ "\n")) r.errors;
  List.iter (fun d -> Buffer.add_string b ("warning " ^ pp_diag d ^ "\n")) r.warnings;
  Buffer.add_string b
    (Printf.sprintf
       "bank: %d sites, %d transactions, %d conflicted, factor %.3f\n"
       r.bank.sites r.bank.transactions r.bank.conflicted r.bank.conflict_factor);
  Buffer.contents b

(* A shared-memory access site, with its address and guard in the
   symbolic domain at that program point. *)
type access = {
  a_pc : int;
  a_write : bool;
  a_int_space : bool;  (* the integer shared array (St/Ld_shared_i) *)
  a_addr : Sym.expr;
  a_guard : Sym.pexpr option;
}

type tri = No | Yes | Maybe

(* Per-thread evaluation of one site: is the thread active (guard true /
   false / undecidable) and at which word. *)
type site_eval = {
  e_active : tri array;
  e_addr : int option array;
  e_unknown : bool;  (* some possibly-active thread has an unknown address *)
}

let max_enum_threads = 1024

(* Advisory lints over a program's CFG: unreachable blocks, dead stores
   and never-read registers from {!Liveness}, and a second bar.sync
   with no shared access since the first. Registers are indexed across
   the three files: integer, then float, then predicate. *)
let lint (p : Program.t) (cfg : Cfg.t) reach =
  let body = p.Program.body in
  let ni = p.n_iregs and nf = p.n_fregs in
  let nregs = ni + nf + p.n_pregs in
  let idx = function
    | Dataflow.R_i r -> r
    | R_f r -> ni + r
    | R_p r -> ni + nf + r
  in
  let reg_of r =
    if r < ni then Dataflow.R_i r
    else if r < ni + nf then R_f (r - ni)
    else R_p (r - ni - nf)
  in
  let lv = Liveness.analyse p cfg in
  let nb = Array.length cfg.Cfg.blocks in
  let diags = ref [] in
  let add kind pc message = diags := { kind; pc; message } :: !diags in
  for b = 0 to nb - 1 do
    if not reach.(b) then
      add Unreachable_code (Some cfg.Cfg.blocks.(b).Cfg.first)
        "unreachable code: no path from entry reaches this block"
  done;
  (* Dead stores: an unguarded definition not live just after the
     instruction. Guarded definitions merge with the old value, so the
     generators' mov-then-guarded-load staging idiom stays clean. *)
  for b = 0 to nb - 1 do
    if reach.(b) then begin
      let blk = cfg.Cfg.blocks.(b) in
      for pc = blk.Cfg.last downto blk.Cfg.first do
        if body.(pc).Instr.guard = None then
          List.iter
            (fun r ->
              if not (Liveness.live_out lv pc r) then
                add Dead_store (Some pc)
                  (Printf.sprintf
                     "%s is written here but never read before being \
                      overwritten (dead store)"
                     (Dataflow.pp_reg r)))
            lv.defs.(pc)
      done
    end
  done;
  (* Registers written but never read, over reachable code. *)
  let used = Array.make (max 1 nregs) false
  and defined = Array.make (max 1 nregs) false in
  for b = 0 to nb - 1 do
    if reach.(b) then begin
      let blk = cfg.Cfg.blocks.(b) in
      for pc = blk.Cfg.first to blk.Cfg.last do
        List.iter (fun r -> used.(idx r) <- true) lv.uses.(pc);
        List.iter (fun r -> defined.(idx r) <- true) lv.defs.(pc)
      done
    end
  done;
  for r = nregs - 1 downto 0 do
    if defined.(r) && not used.(r) then
      add Unread_register None
        (Printf.sprintf "%s is written but never read"
           (Dataflow.pp_reg (reg_of r)))
  done;
  (* Redundant consecutive barriers within one block. *)
  for b = 0 to nb - 1 do
    if reach.(b) then begin
      let blk = cfg.Cfg.blocks.(b) in
      let seen_bar = ref false and shared_since = ref true in
      for pc = blk.Cfg.first to blk.Cfg.last do
        match body.(pc).Instr.op with
        | Instr.Bar ->
          if !seen_bar && not !shared_since then
            add Redundant_barrier (Some pc)
              "redundant bar.sync: no shared-memory access since the \
               previous barrier in this block";
          seen_bar := true;
          shared_since := false
        | Ld_shared _ | Ld_shared_i _ | St_shared _ | St_shared_i _ ->
          shared_since := true
        | _ -> ()
      done
    end
  done;
  List.rev !diags

let run ?(iargs = []) ~block (p : Program.t) =
  let errors = ref [] and warnings = ref [] in
  let push store kind ?pc fmt =
    Printf.ksprintf (fun message -> store := { kind; pc; message } :: !store) fmt
  in
  let err ?pc kind fmt = push errors kind ?pc fmt in
  let warn ?pc kind fmt = push warnings kind ?pc fmt in
  let finish bank =
    { errors = List.rev !errors; warnings = List.rev !warnings; bank }
  in
  match Program.validate p with
  | Error msg ->
    err Structure "%s" msg;
    finish neutral_bank
  | Ok () ->
    match Cfg.build p with
    | Error msg ->
      err Structure "%s" msg;
      finish neutral_bank
    | Ok cfg ->
      let body = p.Program.body in
      let n = Array.length body in
      let reach = Cfg.reachable cfg in
      if cfg.Cfg.may_fall_off_end && reach.(cfg.Cfg.block_of.(n - 1)) then
        err Structure ~pc:(n - 1)
          "control may fall off the end of the body without ret";
      List.iter
        (fun { Dataflow.pc; reg } ->
          err Use_before_def ~pc "%s read before any definition on some path"
            (Dataflow.pp_reg reg))
        (Dataflow.def_before_use p cfg);
      (* The lints are warnings, so [ok] — the generators' legality
         oracle — still means "no errors". *)
      warnings := List.rev_append (lint p cfg reach) !warnings;
      (* Symbolic uniformity / affine pass. *)
      let bx, by, bz = block in
      let int_params =
        Array.map (fun name -> List.assoc_opt name iargs) p.int_params
      in
      let sol = Dataflow.symbolic ~int_params ~block p cfg in
      let nb = Array.length cfg.Cfg.blocks in
      let accesses = ref [] in
      let site_of_pc = Hashtbl.create 32 in
      let varying_branches = ref [] in
      for b = 0 to nb - 1 do
        if reach.(b) then
          Dataflow.walk_block sol b ~f:(fun ~pc env ->
              let instr = body.(pc) in
              let add ~write ~int_space addr_op =
                let site =
                  { a_pc = pc;
                    a_write = write;
                    a_int_space = int_space;
                    a_addr = Dataflow.operand_expr sol env addr_op;
                    a_guard = Dataflow.guard_pexpr env instr }
                in
                Hashtbl.replace site_of_pc pc (List.length !accesses);
                accesses := site :: !accesses
              in
              match instr.Instr.op with
              | Instr.Bar -> (
                  match Dataflow.guard_pexpr env instr with
                  | None -> ()
                  | Some g ->
                    if not (Sym.puniform g) then
                      err Barrier_divergence ~pc
                        "bar.sync guarded by a thread-varying predicate")
              | Ld_shared (_, addr) -> add ~write:false ~int_space:false addr
              | Ld_shared_i (_, addr) -> add ~write:false ~int_space:true addr
              | St_shared (addr, _) -> add ~write:true ~int_space:false addr
              | St_shared_i (addr, _) -> add ~write:true ~int_space:true addr
              | Bra _ | Ret -> (
                  match Dataflow.guard_pexpr env instr with
                  | Some g when not (Sym.puniform g) ->
                    varying_branches :=
                      (b, pc, instr.Instr.op = Instr.Ret) :: !varying_branches
                  | _ -> ())
              | _ -> ())
      done;
      let sites = Array.of_list (List.rev !accesses) in
      let m = Array.length sites in
      (* Bar instructions per block; any Bar (guarded or not) is a
         divergence hazard inside a thread-varying region. *)
      let bar_pcs b =
        let blk = cfg.Cfg.blocks.(b) in
        let acc = ref [] in
        for i = blk.Cfg.last downto blk.Cfg.first do
          if body.(i).Instr.op = Instr.Bar then acc := i :: !acc
        done;
        !acc
      in
      (* Barrier divergence from thread-varying control flow. *)
      (match !varying_branches with
       | [] -> ()
       | vb ->
         let ipdom = Cfg.postdominators cfg in
         let reachable_from succs =
           let seen = Array.make nb false in
           let rec go id =
             if not seen.(id) then begin
               seen.(id) <- true;
               List.iter go cfg.Cfg.blocks.(id).Cfg.succs
             end
           in
           List.iter go succs;
           List.filter (fun id -> seen.(id)) (List.init nb Fun.id)
         in
         List.iter
           (fun (b, pc, is_ret) ->
             let region =
               if is_ret then
                 (* Threads that return early never reach a later barrier:
                    any Bar reachable past the guarded ret deadlocks. *)
                 reachable_from cfg.Cfg.blocks.(b).Cfg.succs
               else Cfg.divergence_region cfg ~ipdom b
             in
             match List.concat_map bar_pcs region with
             | [] -> ()
             | bar_pc :: _ ->
               err Barrier_divergence ~pc:bar_pc
                 "bar.sync may be reached with threads diverged at the \
                  %s at pc %d (thread-varying guard)"
                 (if is_ret then "guarded ret" else "branch")
                 pc)
           vb);
      (* Barrier intervals: which sites may execute with no intervening
         (unguarded) bar.sync. Forward may-analysis on site sets. *)
      let walk_sites b live ~at_site =
        let blk = cfg.Cfg.blocks.(b) in
        let live = ref live in
        for i = blk.Cfg.first to blk.Cfg.last do
          match body.(i).Instr.op with
          | Instr.Bar when body.(i).Instr.guard = None -> live := IS.empty
          | Ld_shared _ | Ld_shared_i _ | St_shared _ | St_shared_i _ ->
            let s = Hashtbl.find site_of_pc i in
            at_site s !live;
            live := IS.add s !live
          | _ -> ()
        done;
        !live
      in
      let in_sets = Array.make nb IS.empty in
      let out_sets = Array.make nb IS.empty in
      let changed = ref true in
      while !changed do
        changed := false;
        for b = 0 to nb - 1 do
          if reach.(b) then begin
            let inb =
              List.fold_left
                (fun acc pr -> IS.union acc out_sets.(pr))
                IS.empty cfg.Cfg.blocks.(b).Cfg.preds
            in
            in_sets.(b) <- inb;
            let out = walk_sites b inb ~at_site:(fun _ _ -> ()) in
            if not (IS.equal out out_sets.(b)) then begin
              out_sets.(b) <- out;
              changed := true
            end
          end
        done
      done;
      let pairs = Hashtbl.create 64 in
      for b = 0 to nb - 1 do
        if reach.(b) then
          ignore
            (walk_sites b in_sets.(b) ~at_site:(fun s live ->
                 Hashtbl.replace pairs (s, s) ();
                 IS.iter
                   (fun l -> Hashtbl.replace pairs (min l s, max l s) ())
                   live))
      done;
      let nthreads = bx * by * bz in
      if nthreads <= 0 || nthreads > max_enum_threads then begin
        if m > 0 then
          warn Unanalyzable
            "block of %d threads out of range for enumeration; shared race/\
             bounds/bank analysis skipped" nthreads;
        finish neutral_bank
      end
      else begin
        let tid_of t = (t mod bx, t / bx mod by, t / (bx * by)) in
        let evals =
          Array.map
            (fun s ->
              let e_active = Array.make nthreads No in
              let e_addr = Array.make nthreads None in
              let unknown = ref false in
              for t = 0 to nthreads - 1 do
                let tid = tid_of t in
                let active =
                  match s.a_guard with
                  | None -> Yes
                  | Some g -> (
                      match Sym.peval ~tid g with
                      | Some true -> Yes
                      | Some false -> No
                      | None -> Maybe)
                in
                e_active.(t) <- active;
                if active <> No then begin
                  e_addr.(t) <- Sym.eval ~tid s.a_addr;
                  if e_addr.(t) = None then unknown := true
                end
              done;
              { e_active; e_addr; e_unknown = !unknown })
            sites
        in
        Array.iteri
          (fun i s ->
            if evals.(i).e_unknown then
              warn Unanalyzable ~pc:s.a_pc
                "shared %s address is not a closed function of tid; race/\
                 bounds/bank analysis skipped here"
                (if s.a_write then "store" else "load"))
          sites;
        (* Static bounds: a definitely-active thread with a known address
           must stay inside the declared shared allocation. *)
        Array.iteri
          (fun i s ->
            let bound =
              if s.a_int_space then p.shared_int_words else p.shared_words
            in
            let ev = evals.(i) in
            let reported = ref false in
            for t = 0 to nthreads - 1 do
              if (not !reported) && ev.e_active.(t) = Yes then
                match ev.e_addr.(t) with
                | Some a when a < 0 || a >= bound ->
                  let x, y, z = tid_of t in
                  reported := true;
                  err Shared_bounds ~pc:s.a_pc
                    "thread (%d,%d,%d) accesses shared%s word %d outside \
                     [0,%d)"
                    x y z (if s.a_int_space then "_i" else "") a bound
                | _ -> ()
            done)
          sites;
        (* Races: two possibly-active distinct threads touching the same
           word of the same space in one barrier interval, >=1 write. *)
        Hashtbl.iter
          (fun (i, j) () ->
            let s1 = sites.(i) and s2 = sites.(j) in
            if
              s1.a_int_space = s2.a_int_space
              && (s1.a_write || s2.a_write)
              && (not evals.(i).e_unknown)
              && not evals.(j).e_unknown
            then begin
              let table = Hashtbl.create (2 * nthreads) in
              for t = 0 to nthreads - 1 do
                if evals.(i).e_active.(t) <> No then
                  match evals.(i).e_addr.(t) with
                  | Some a when not (Hashtbl.mem table a) ->
                    Hashtbl.add table a t
                  | _ -> ()
              done;
              let reported = ref false in
              for t2 = 0 to nthreads - 1 do
                if (not !reported) && evals.(j).e_active.(t2) <> No then
                  match evals.(j).e_addr.(t2) with
                  | Some a -> (
                      match Hashtbl.find_opt table a with
                      | Some t1 when t1 <> t2 ->
                        reported := true;
                        let x1, y1, z1 = tid_of t1 and x2, y2, z2 = tid_of t2 in
                        err Shared_race ~pc:s2.a_pc
                          "possible %s/%s race on shared%s word %d: pc %d \
                           thread (%d,%d,%d) vs pc %d thread (%d,%d,%d) in \
                           the same barrier interval"
                          (if s1.a_write then "write" else "read")
                          (if s2.a_write then "write" else "read")
                          (if s1.a_int_space then "_i" else "")
                          a s1.a_pc x1 y1 z1 s2.a_pc x2 y2 z2
                      | _ -> ())
                  | None -> ()
              done
            end)
          pairs;
        (* Bank conflicts: per warp, the serialization degree is the
           largest number of distinct words mapped to one bank (equal
           words broadcast). *)
        let banks = 32 in
        let warp = 32 in
        let analyzable = ref 0 in
        let transactions = ref 0 in
        let conflicted = ref 0 in
        let cycles = ref 0 in
        Array.iteri
          (fun i _ ->
            let ev = evals.(i) in
            if not ev.e_unknown then begin
              incr analyzable;
              let w0 = ref 0 in
              while !w0 < nthreads do
                let per_bank = Hashtbl.create 64 in
                let any = ref false in
                for t = !w0 to min (nthreads - 1) (!w0 + warp - 1) do
                  if ev.e_active.(t) <> No then
                    match ev.e_addr.(t) with
                    | Some a ->
                      any := true;
                      let bank = ((a mod banks) + banks) mod banks in
                      let set =
                        Option.value
                          (Hashtbl.find_opt per_bank bank)
                          ~default:IS.empty
                      in
                      Hashtbl.replace per_bank bank (IS.add a set)
                    | None -> ()
                done;
                if !any then begin
                  let degree =
                    Hashtbl.fold
                      (fun _ set acc -> max acc (IS.cardinal set))
                      per_bank 1
                  in
                  incr transactions;
                  cycles := !cycles + degree;
                  if degree > 1 then incr conflicted
                end;
                w0 := !w0 + warp
              done
            end)
          sites;
        let factor =
          if !transactions = 0 then 1.0
          else float_of_int !cycles /. float_of_int !transactions
        in
        finish
          { sites = !analyzable;
            transactions = !transactions;
            conflicted = !conflicted;
            conflict_factor = factor }
      end
