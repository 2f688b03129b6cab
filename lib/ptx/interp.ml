open Types

type counters = {
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

let zero_counters () =
  { ialu = 0; fma = 0; fp_other = 0; ld_global = 0; st_global = 0;
    ld_shared = 0; st_shared = 0; atom = 0; bar = 0; branch = 0;
    pred = 0; mov = 0; predicated_off = 0;
    gld_transactions = 0; gst_transactions = 0; shared_transactions = 0 }

let total c =
  c.ialu + c.fma + c.fp_other + c.ld_global + c.st_global + c.ld_shared
  + c.st_shared + c.atom + c.bar + c.branch + c.pred + c.mov

let summary c =
  Printf.sprintf
    "dyn: total=%d ialu=%d fma=%d fp=%d ld.g=%d st.g=%d ld.s=%d st.s=%d \
     atom=%d bar=%d bra=%d pred=%d mov=%d masked=%d gld.txn=%d gst.txn=%d \
     smem.txn=%d"
    (total c) c.ialu c.fma c.fp_other c.ld_global c.st_global c.ld_shared
    c.st_shared c.atom c.bar c.branch c.pred c.mov c.predicated_off
    c.gld_transactions c.gst_transactions c.shared_transactions

let add_into ~into c =
  into.ialu <- into.ialu + c.ialu;
  into.fma <- into.fma + c.fma;
  into.fp_other <- into.fp_other + c.fp_other;
  into.ld_global <- into.ld_global + c.ld_global;
  into.st_global <- into.st_global + c.st_global;
  into.ld_shared <- into.ld_shared + c.ld_shared;
  into.st_shared <- into.st_shared + c.st_shared;
  into.atom <- into.atom + c.atom;
  into.bar <- into.bar + c.bar;
  into.branch <- into.branch + c.branch;
  into.pred <- into.pred + c.pred;
  into.mov <- into.mov + c.mov;
  into.predicated_off <- into.predicated_off + c.predicated_off;
  into.gld_transactions <- into.gld_transactions + c.gld_transactions;
  into.gst_transactions <- into.gst_transactions + c.gst_transactions;
  into.shared_transactions <- into.shared_transactions + c.shared_transactions

(* Feed the per-run totals into the telemetry registry (one call per
   interpreted launch; a handful of no-ops when no sink is open). *)
let obs_export c =
  if Obs.Telemetry.enabled () then begin
    Obs.Telemetry.incr "interp.runs";
    Obs.Telemetry.add "interp.dyn.total" (total c);
    Obs.Telemetry.add "interp.dyn.ialu" c.ialu;
    Obs.Telemetry.add "interp.dyn.fma" c.fma;
    Obs.Telemetry.add "interp.dyn.fp_other" c.fp_other;
    Obs.Telemetry.add "interp.dyn.ld_global" c.ld_global;
    Obs.Telemetry.add "interp.dyn.st_global" c.st_global;
    Obs.Telemetry.add "interp.dyn.ld_shared" c.ld_shared;
    Obs.Telemetry.add "interp.dyn.st_shared" c.st_shared;
    Obs.Telemetry.add "interp.dyn.atom" c.atom;
    Obs.Telemetry.add "interp.dyn.bar_waits" c.bar;
    Obs.Telemetry.add "interp.dyn.branch" c.branch;
    Obs.Telemetry.add "interp.dyn.pred" c.pred;
    Obs.Telemetry.add "interp.dyn.mov" c.mov;
    Obs.Telemetry.add "interp.dyn.predicated_off" c.predicated_off;
    Obs.Telemetry.add "interp.txn.global_load" c.gld_transactions;
    Obs.Telemetry.add "interp.txn.global_store" c.gst_transactions;
    Obs.Telemetry.add "interp.txn.shared" c.shared_transactions
  end

exception Trap of string

let trap fmt = Printf.ksprintf (fun s -> raise (Trap s)) fmt

(* ---------------------------------------------------------------------
   Execution model.

   [run] lowers the body once per launch into flat bytecode (see "Flat
   bytecode" below) and interprets it block by block. Blocks are
   independent except for [Atom_global_add], so the grid loop fans out
   across OCaml domains ([Util.Parallel]): each domain executes a
   contiguous chunk of linearized block indices against its own context
   (counter shard, shared memory, transaction-replay state) and the
   shards are summed in chunk order afterwards — counter totals are sums
   of per-block contributions, so the merged result is bit-identical to
   serial execution. Kernels containing global atomics fall back to a
   single domain so floating-point accumulation order (and thus output
   buffers) also stays bit-identical. The dynamic-instruction budget is a
   shared atomic permit pool; domains take leases of [lease_chunk]
   permits so the hot path stays a plain decrement. *)

(* Per-thread architectural state. Threads are allocated once per domain
   and reset per block (registers zero-filled, as a fresh allocation
   would be). *)
type thread = {
  fregs : float array;
  iregs : int array;
  pregs : bool array;
  mutable pc : int;  (* bytecode word offset *)
  lin : int;  (* linear thread index within the block (lane = lin mod 32) *)
  tid_x : int;
  tid_y : int;
  tid_z : int;
}

(* One access group of the memory-transaction replay: the accesses issued
   by the lanes of one warp for one dynamic execution of one memory
   instruction. Groups live in per-(instruction, warp) pools indexed by
   the dynamic ordinal and are invalidated lazily by stamp comparison at
   every barrier phase — no per-phase O(size) reset. A group holds at most
   32 entries (one per lane), so membership is a linear scan over a small
   int array: distinct 32-word segments for global memory, distinct
   addresses for shared memory. *)
type grp = {
  mutable g_items : int array;
  mutable g_n : int;
  mutable g_passes : int;  (* shared: serialized passes charged so far *)
  mutable g_stamp : int;
  mutable g_id : int;  (* unique per incarnation; keys the probe table *)
  mutable g_seeded : int;  (* g_id for which the probe table was seeded *)
  mutable g_banks : int array;  (* shared: per-bank counts, big groups *)
  mutable g_tab_addr : int array;  (* open-addressed membership table *)
  mutable g_tab_id : int array;  (* owning g_id per table slot *)
}

(* Per-domain execution context. *)
type ctx = {
  k : counters;  (* this domain's counter shard *)
  pool : int Atomic.t;  (* shared budget: remaining permitted executions *)
  mutable lease : int;  (* permits reserved locally, spent one per charge *)
  n_warps : int;
  shared_f : float array;
  shared_i : int array;
  (* replay state: flat per-(mem-instruction, warp, lane) dynamic
     ordinals — packed as [(stamp lsl 32) lor kth] so one array access
     replaces a separate stamp check — plus per-(mem-instruction, warp)
     group pools *)
  ord : int array;
  grps : grp array array;
  mutable gid : int;  (* next fresh group-incarnation id *)
  mutable stamp : int;  (* bumped per barrier phase and per block *)
  threads : thread array;
}

let lease_chunk = 65536

let refill ctx =
  let rec take () =
    let cur = Atomic.get ctx.pool in
    if cur <= 0 then
      raise
        (Trap
           (Printf.sprintf "dynamic instruction budget exhausted [%s]"
              (summary ctx.k)))
    else
      let g = if lease_chunk < cur then lease_chunk else cur in
      if Atomic.compare_and_set ctx.pool cur (cur - g) then ctx.lease <- g - 1
      else take ()
  in
  take ()

let new_grp () =
  { g_items = Array.make 8 0;
    g_n = 0;
    g_passes = 0;
    g_stamp = 0;
    g_id = 0;
    g_seeded = 0;
    g_banks = [||];
    g_tab_addr = [||];
    g_tab_id = [||] }

(* Locate this lane's current access group: bump the lane's dynamic
   ordinal and return the (lazily reset) k-th group of the (slot, warp)
   pool. [msw] is the memory slot pre-scaled by [n_warps] at lowering
   time, so locating the pool costs a shift and an add. The packed
   ordinal word self-invalidates across barrier phases by carrying its
   stamp in the high bits; a kth above 2^32 would corrupt the stamp, but
   that would take >4e9 dynamic executions of a single instruction —
   far beyond any [max_dynamic] in use. *)
let group ctx msw lin =
  let sw = msw + (lin lsr 5) in
  let oi = (sw lsl 5) lor (lin land 31) in
  let stamp = ctx.stamp in
  let o = Array.unsafe_get ctx.ord oi in
  let kth = if o asr 32 = stamp then o land 0xffffffff else 0 in
  Array.unsafe_set ctx.ord oi ((stamp lsl 32) lor (kth + 1));
  let row = Array.unsafe_get ctx.grps sw in
  let row =
    if kth < Array.length row then row
    else begin
      let n = Array.length row in
      let grown =
        Array.init (max 8 (2 * (kth + 1))) (fun i ->
            if i < n then row.(i) else new_grp ())
      in
      ctx.grps.(sw) <- grown;
      grown
    end
  in
  let g = Array.unsafe_get row kth in
  if g.g_stamp <> stamp then begin
    g.g_stamp <- stamp;
    g.g_n <- 0;
    g.g_passes <- 0;
    g.g_id <- ctx.gid;
    ctx.gid <- ctx.gid + 1
  end;
  g

let grp_add g v =
  if g.g_n = Array.length g.g_items then begin
    let grown = Array.make (2 * g.g_n) 0 in
    Array.blit g.g_items 0 grown 0 g.g_n;
    g.g_items <- grown
  end;
  g.g_items.(g.g_n) <- v;
  g.g_n <- g.g_n + 1

let grp_threshold = 8
let shared_tab_mask = 63  (* 64 slots >= 2 * 32 lanes: load factor <= 1/2 *)

(* Closure-free helpers for the replay hot path: module-level recursion
   avoids allocating a local closure environment on every access. *)

let record_global ctx ~store msw lin addr =
  let g = group ctx msw lin in
  let seg = addr asr 5 in
  let items = g.g_items and n = g.g_n in
  let rec mem i = i < n && (Array.unsafe_get items i = seg || mem (i + 1)) in
  if not (mem 0) then begin
    grp_add g seg;
    let k = ctx.k in
    if store then k.gst_transactions <- k.gst_transactions + 1
    else k.gld_transactions <- k.gld_transactions + 1
  end

(* Serialized passes: max over banks of the distinct-address count (equal
   addresses broadcast). Charge one transaction each time the running max
   grows — identical to charging the final max once per group.

   Small groups (the common predicated/tail case) use a linear scan over
   [g_items], exactly the naive algorithm. Once a group crosses
   [grp_threshold] distinct addresses — e.g. the 32 distinct lanes of a
   staging load — membership switches to a 64-slot open-addressed probe
   table and the bank maximum to incrementally maintained per-bank counts,
   turning the per-lane cost from O(n) scans into O(1) expected. Stale
   table slots self-invalidate by [g_id] comparison, so reseating a group
   never clears the table. Both paths charge identically by construction:
   the switch only changes how "distinct" and "max over banks" are
   computed, not their values. *)
let record_shared ctx msw lin addr =
  let g = group ctx msw lin in
  let n = g.g_n in
  let charge c =
    if c > g.g_passes then begin
      g.g_passes <- c;
      ctx.k.shared_transactions <- ctx.k.shared_transactions + 1
    end
  in
  if n < grp_threshold then begin
    let items = g.g_items in
    let rec mem i = i < n && (Array.unsafe_get items i = addr || mem (i + 1)) in
    if not (mem 0) then begin
      let bank = addr land 31 in
      let c = ref 1 in
      for i = 0 to n - 1 do
        if Array.unsafe_get items i land 31 = bank then incr c
      done;
      grp_add g addr;
      charge !c
    end
  end
  else begin
    let id = g.g_id in
    if g.g_seeded <> id then begin
      (* First access past the threshold: seed the probe table and bank
         counts from the items accumulated by the linear path. *)
      if Array.length g.g_tab_addr = 0 then begin
        g.g_tab_addr <- Array.make (shared_tab_mask + 1) 0;
        g.g_tab_id <- Array.make (shared_tab_mask + 1) 0;
        g.g_banks <- Array.make 32 0
      end
      else Array.fill g.g_banks 0 32 0;
      let items = g.g_items and tab_addr = g.g_tab_addr and tab_id = g.g_tab_id in
      for i = 0 to n - 1 do
        let v = Array.unsafe_get items i in
        let rec place s =
          let s = s land shared_tab_mask in
          if Array.unsafe_get tab_id s = id then place (s + 1)
          else begin
            Array.unsafe_set tab_id s id;
            Array.unsafe_set tab_addr s v
          end
        in
        place (v land shared_tab_mask);
        let b = v land 31 in
        Array.unsafe_set g.g_banks b (Array.unsafe_get g.g_banks b + 1)
      done;
      g.g_seeded <- id
    end;
    let tab_addr = g.g_tab_addr and tab_id = g.g_tab_id in
    let rec probe s =
      let s = s land shared_tab_mask in
      if Array.unsafe_get tab_id s = id then
        if Array.unsafe_get tab_addr s = addr then () (* broadcast: free *)
        else probe (s + 1)
      else begin
        Array.unsafe_set tab_id s id;
        Array.unsafe_set tab_addr s addr;
        g.g_n <- n + 1;
        let bank = addr land 31 in
        let c = Array.unsafe_get g.g_banks bank + 1 in
        Array.unsafe_set g.g_banks bank c;
        charge c
      end
    in
    probe (addr land shared_tab_mask)
  end

type stop = Hit_bar | Hit_ret

(* pc -> nearest preceding label, precomputed in one pass so trap
   messages stay rich ("pc N (label L + k)") at zero steady-state cost. *)
let nearest_labels (body : Instr.t array) =
  let near = Array.make (max 1 (Array.length body)) None in
  let cur = ref None in
  Array.iteri
    (fun i (ins : Instr.t) ->
      (match ins.Instr.op with Instr.Label l -> cur := Some (l, i) | _ -> ());
      near.(i) <- !cur)
    body;
  near

let describe_with near n_body pc =
  let j = if pc < n_body - 1 then pc else n_body - 1 in
  if j < 0 then Printf.sprintf "pc %d" pc
  else
    match near.(j) with
    | Some (l, lpc) when pc = lpc -> Printf.sprintf "pc %d (label %s)" pc l
    | Some (l, lpc) -> Printf.sprintf "pc %d (label %s + %d)" pc l (pc - lpc)
    | None -> Printf.sprintf "pc %d" pc

(* Stable category numbering packed into bytecode instruction words
   (bits 18–21) for the masked-issue bump; follows the field order of
   [counters]. *)
let cat_code = function
  | Instr.Cat_ialu -> 0
  | Cat_fma -> 1
  | Cat_fp_other -> 2
  | Cat_ld_global -> 3
  | Cat_st_global -> 4
  | Cat_ld_shared -> 5
  | Cat_st_shared -> 6
  | Cat_atom -> 7
  | Cat_bar -> 8
  | Cat_branch -> 9
  | Cat_pred -> 10
  | Cat_mov -> 11

let bump_cat k = function
  | 0 -> k.ialu <- k.ialu + 1
  | 1 -> k.fma <- k.fma + 1
  | 2 -> k.fp_other <- k.fp_other + 1
  | 3 -> k.ld_global <- k.ld_global + 1
  | 4 -> k.st_global <- k.st_global + 1
  | 5 -> k.ld_shared <- k.ld_shared + 1
  | 6 -> k.st_shared <- k.st_shared + 1
  | 7 -> k.atom <- k.atom + 1
  | 8 -> k.bar <- k.bar + 1
  | 9 -> k.branch <- k.branch + 1
  | 10 -> k.pred <- k.pred + 1
  | 11 -> k.mov <- k.mov + 1
  | _ -> ()

(* ---------------------------------------------------------------------
   Flat bytecode.

   [run] lowers the body once per launch into one flat [int] array of
   variable-stride packed instructions and runs a direct dispatch loop
   over it — the interpreter analogue of executing the [Encode] wire
   format instead of an AST. The dispatch is a dense integer [match] (a
   jump table) and the register files / counter shard are hoisted into
   locals of the per-thread execution loop, so an instruction costs no
   indirect call and no environment loads.

   Word 0 of every instruction packs, mirroring [Encode]'s layout idea:
     bits 0–7   bytecode opcode (shape-specialized, not [Instr.opcode])
     bits 8–9   guard kind: 0 none, 1 [@%p], 2 [@!%p]
     bits 18–21 category index ([cat_code]) for the masked-issue bump
     bits 22–25 stride: total words incl. operands; next pc = pc + stride
     bits 26–41 guard predicate register (16 bits: unlike [Encode]'s
                6-bit post-allocation field, this engine must also run
                raw codegen output whose virtual predicates number in
                the hundreds)
   Operand words follow. All launch-invariant decoding happens during
   lowering:
   - labels are squashed; branch targets are absolute word offsets
     patched in a second pass (undefined labels keep the reference's
     lazy first-execution trap via a side table of names);
   - params and launch-geometry specials fold to inline constants;
     [Tid_*]/[Ctaid_*] become six virtual integer registers appended
     after the architectural file and refreshed per block, so every
     integer operand collapses to register-or-constant;
   - hot shapes get dedicated opcodes (reg/reg and reg/const add, mul,
     mad, setp, the all-register FFMA, moves); cold shapes share generic
     opcodes whose operands carry explicit kind words;
   - float immediates live in a per-launch constant pool.

   Counter bumps, trap messages, transaction-replay calls, bounds-check
   ordering and the budget charge are placed exactly as in the
   decode-per-step {!Interp_ref} — the differential suite holds the two
   to bit-identical outputs, counters and trap messages. *)

(* Bytecode opcodes (the [match] below is a dense jump table). *)
let bc_mov_r = 0
let bc_mov_c = 1
let bc_movf_r = 2
let bc_movf_c = 3
let bc_iadd_rr = 4
let bc_iadd_rc = 5
let bc_imul_rr = 6
let bc_imul_rc = 7
let bc_imad_rrr = 8
let bc_imad_rcr = 9
let bc_iop2 = 10
let bc_imad_g = 11
let bc_idiv = 12
let bc_irem = 13
let bc_setp_rr = 14
let bc_setp_rc = 15
let bc_setp_g = 16
let bc_andp = 17
let bc_orp = 18
let bc_notp = 19
let bc_fadd_rr = 20
let bc_fsub_rr = 21
let bc_fmul_rr = 22
let bc_fmax_rr = 23
let bc_fmin_rr = 24
let bc_f2_g = 25
let bc_ffma_rrr = 26
let bc_ffma_g = 27
let bc_ldg = 28
let bc_ldgi = 29
let bc_lds = 30
let bc_ldsi = 31
let bc_stg = 32
let bc_stg_h = 33
let bc_sts = 34
let bc_sts_h = 35
let bc_stsi = 36
let bc_atom = 37
let bc_atom_h = 38
let bc_bra = 39
let bc_bra_undef = 40
let bc_bar = 41
let bc_ret = 42

(* Superinstruction: a maximal run of >= 2 consecutive unguarded
   all-register FFMAs — the dominant block of every GEMM/CONV inner loop —
   fused into one dispatch. Layout: w0, n, then n quadruples (d, a, b, c).
   Runs never span labels (a label is a body instruction and is not an
   Ffma), so no branch target can land inside a run. *)
let bc_ffma_run = 43

(* Pair superinstructions for the address-bump/staging idiom around every
   shared load in generated GEMM/CONV inner loops. Both components must be
   unguarded and adjacent in the body (so no label — and hence no branch
   target — can sit between them); execution inside the pair stays fully
   sequential, so no operand-independence condition is needed. The second
   component is charged against the budget inline, preserving the exact
   exhaustion point and counter snapshot of the unfused code. *)
let bc_lds_add = 44 (* ld.shared fD, [rA]; iadd rD, rS, imm *)
let bc_add_lds = 45 (* iadd rD, rS, imm; ld.shared fD, [rA] *)
let bc_mad_lds = 46 (* imad rD, rA, imm, rC; ld.shared fD, [rA'] *)
let bc_imad_rcc = 47 (* imad rD, rA, imm, imm' *)

(* Quad superinstructions: the full per-substep shared-operand fetch of
   the unrolled inner loop (imad-or-iadd address, load, bump, load). Same
   fusion rules as the pairs, applied to four adjacent unguarded
   instructions; each shared load carries its own original pc. *)
let bc_mad_lds_add_lds = 48
let bc_add_lds_add_lds = 49

let run ?(max_dynamic = 200_000_000) ?domains (p : Program.t) ~grid
    ~block ~bufs ~iargs =
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
  let near = nearest_labels body in
  let describe pc = describe_with near n_body pc in
  (* Every trap raised during execution carries the counter totals
     accumulated up to the fault (this domain's shard) — the "hardware
     counter" snapshot that makes divergent or runaway kernels
     diagnosable post mortem. *)
  let trap_at k opc fmt =
    Printf.ksprintf
      (fun s ->
        let where = describe opc in
        (* When serving telemetry is live, record the trap in the flight
           ring and append the recorder's recent-event context to the
           failure report — the post-mortem for a kernel that faults
           mid-request. *)
        let flight =
          if Obs.Telemetry.enabled () then begin
            Obs.Telemetry.Flight.record ~kind:"trap" ~name:p.name
              (s ^ " at " ^ where);
            match Obs.Telemetry.Flight.dump () with
            | "" -> ""
            | d -> "\n" ^ d
          end
          else ""
        in
        raise
          (Trap (Printf.sprintf "%s at %s [%s]%s" s where (summary k) flight)))
      fmt
  in
  let is_half = p.dtype = F16 in

  let shared_words = p.shared_words in
  let shared_int_words = p.shared_int_words in
  (* --- lowering pass ---------------------------------------------------- *)
  (* Virtual integer registers carrying thread/block ids, appended after
     the architectural file. *)
  let vt = p.n_iregs in
  let cki r =
    if r < 0 || r >= p.n_iregs then trap "invalid integer register %%r%d" r;
    r
  in
  let ckf r =
    if r < 0 || r >= p.n_fregs then trap "invalid float register %%f%d" r;
    r
  in
  let ckp r =
    if r < 0 || r >= p.n_pregs then trap "invalid predicate register %%p%d" r;
    r
  in
  let code_buf = ref (Array.make 256 0) in
  let code_len = ref 0 in
  let emit v =
    if !code_len = Array.length !code_buf then begin
      let grown = Array.make (2 * !code_len) 0 in
      Array.blit !code_buf 0 grown 0 !code_len;
      code_buf := grown
    end;
    !code_buf.(!code_len) <- v;
    incr code_len
  in
  (* Float constant pool (deduplicated by bit pattern). *)
  let ftbl = Hashtbl.create 16 in
  let frev = ref [] in
  let n_fconst = ref 0 in
  let fconst v =
    let key = Int64.bits_of_float v in
    match Hashtbl.find_opt ftbl key with
    | Some i -> i
    | None ->
      let i = !n_fconst in
      incr n_fconst;
      frev := v :: !frev;
      Hashtbl.add ftbl key i;
      i
  in
  (* Undefined branch targets: name table for the lazy trap. *)
  let urev = ref [] in
  let n_undef = ref 0 in
  let undef name =
    let i = !n_undef in
    incr n_undef;
    urev := name :: !urev;
    i
  in
  (* Dense memory-instruction slots for the transaction replay, drawn in
     program order and pre-scaled by n_warps so locating a (slot, warp)
     group pool needs no multiply on the hot path. *)
  let n_warps = ((bx * by * bz) + 31) / 32 in
  let n_mem = ref 0 in
  let fresh_mem () =
    let m = !n_mem * n_warps in
    incr n_mem;
    m
  in
  (* Integer operand -> (kind, value): kind 0 register (possibly
     virtual), kind 1 inline constant. *)
  let ik = function
    | Ireg r -> (0, cki r)
    | Iimm v -> (1, v)
    | Iparam slot -> (1, ints.(slot))
    | Ispecial s -> (
      match s with
      | Ntid_x -> (1, bx)
      | Ntid_y -> (1, by)
      | Ntid_z -> (1, bz)
      | Nctaid_x -> (1, gx)
      | Nctaid_y -> (1, gy)
      | Nctaid_z -> (1, gz)
      | Tid_x -> (0, vt)
      | Tid_y -> (0, vt + 1)
      | Tid_z -> (0, vt + 2)
      | Ctaid_x -> (0, vt + 3)
      | Ctaid_y -> (0, vt + 4)
      | Ctaid_z -> (0, vt + 5))
  in
  (* Float operand -> (kind, value): kind 0 register, kind 1 pool index. *)
  let fk = function Freg r -> (0, ckf r) | Fimm v -> (1, fconst v) in
  let cmp_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5 in
  let word_at = Array.make (max 1 n_body) (-1) in
  let fixups = ref [] in
  (* FFMA-run lengths: run_len.(i) = number of consecutive unguarded
     all-register FFMAs starting at body position i (0 otherwise). *)
  let is_hot_ffma i =
    let { Instr.op; guard } = body.(i) in
    guard = None
    &&
    match op with
    | Instr.Ffma (_, Freg _, Freg _, Freg _) -> true
    | _ -> false
  in
  let run_len = Array.make (max 1 n_body) 0 in
  for i = n_body - 1 downto 0 do
    if is_hot_ffma i then
      run_len.(i) <- 1 + (if i + 1 < n_body then run_len.(i + 1) else 0)
  done;
  (* Pair-fusion component shapes (all unguarded). *)
  let iadd_rc_parts i =
    let { Instr.op; guard } = body.(i) in
    if guard <> None then None
    else
      match op with
      | Instr.Iadd (d, a, b) -> (
        match (ik a, ik b) with
        | (0, x), (1, v) | (1, v), (0, x) -> Some (cki d, x, v)
        | _ -> None)
      | _ -> None
  in
  let imad_rcr_parts i =
    let { Instr.op; guard } = body.(i) in
    if guard <> None then None
    else
      match op with
      | Instr.Imad (d, a, b, c) -> (
        match (ik a, ik b, ik c) with
        | (0, x), (1, v), (0, z) | (1, v), (0, x), (0, z) ->
          Some (cki d, x, v, z)
        | _ -> None)
      | _ -> None
  in
  let lds_parts i =
    let { Instr.op; guard } = body.(i) in
    if guard <> None then None
    else
      match op with
      | Instr.Ld_shared (d, addr) -> (
        match ik addr with 0, r -> Some (ckf d, r) | _ -> None)
      | _ -> None
  in
  let skip = ref 0 in
  for i = 0 to n_body - 1 do
    let { Instr.op; guard } = body.(i) in
    if !skip > 0 then decr skip
    else if run_len.(i) >= 2 then begin
      let n = run_len.(i) in
      let w0_at = !code_len in
      word_at.(i) <- w0_at;
      emit 0;
      emit n;
      for j = i to i + n - 1 do
        match body.(j).Instr.op with
        | Instr.Ffma (d, Freg a, Freg b, Freg c) ->
          emit (ckf d); emit (ckf a); emit (ckf b); emit (ckf c)
        | _ -> assert false
      done;
      (* Unguarded by construction: guard bits 0, so the masked path (and
         thus the stride field) is unreachable. *)
      !code_buf.(w0_at) <- bc_ffma_run lor (cat_code Instr.Cat_fma lsl 18);
      skip := n - 1
    end
    else if
      (* Greedy adjacent fusion, longest pattern first; the shared load
         keeps the w0 slot's original pc when it comes first, and carries
         its own pc as an operand otherwise (trap attribution). fresh_mem
         is still drawn in program order. *)
      (let start () =
         let w0_at = !code_len in
         word_at.(i) <- w0_at;
         emit 0;
         w0_at
       in
       let finish w0_at bop cat =
         !code_buf.(w0_at) <- bop lor (cat_code cat lsl 18)
       in
       let emit_lds fd ar opc =
         emit fd; emit (fresh_mem ()); emit ar; emit opc
       in
       let quad =
         if i + 3 >= n_body then false
         else
           match (lds_parts (i + 1), iadd_rc_parts (i + 2), lds_parts (i + 3)) with
           | Some (f1, r1), Some (a2d, a2s, a2i), Some (f2, r2) -> (
             match imad_rcr_parts i with
             | Some (md, mx, mv, mz) ->
               let w0_at = start () in
               emit md; emit mx; emit mv; emit mz;
               emit_lds f1 r1 (i + 1);
               emit a2d; emit a2s; emit a2i;
               emit_lds f2 r2 (i + 3);
               finish w0_at bc_mad_lds_add_lds Instr.Cat_ialu;
               skip := 3;
               true
             | None -> (
               match iadd_rc_parts i with
               | Some (ad, asrc, aimm) ->
                 let w0_at = start () in
                 emit ad; emit asrc; emit aimm;
                 emit_lds f1 r1 (i + 1);
                 emit a2d; emit a2s; emit a2i;
                 emit_lds f2 r2 (i + 3);
                 finish w0_at bc_add_lds_add_lds Instr.Cat_ialu;
                 skip := 3;
                 true
               | None -> false))
           | _ -> false
       in
       quad
       || i + 1 < n_body
          &&
          match lds_parts i with
          | Some (fd, ar) -> (
            match iadd_rc_parts (i + 1) with
            | Some (ad, asrc, imm) ->
              let w0_at = start () in
              emit fd; emit (fresh_mem ()); emit ar;
              emit ad; emit asrc; emit imm;
              finish w0_at bc_lds_add Instr.Cat_ld_shared;
              skip := 1;
              true
            | None -> false)
          | None -> (
            match lds_parts (i + 1) with
            | None -> false
            | Some (fd, ar) -> (
              match iadd_rc_parts i with
              | Some (ad, asrc, imm) ->
                let w0_at = start () in
                emit ad; emit asrc; emit imm;
                emit_lds fd ar (i + 1);
                finish w0_at bc_add_lds Instr.Cat_ialu;
                skip := 1;
                true
              | None -> (
                match imad_rcr_parts i with
                | Some (md, mx, mv, mz) ->
                  let w0_at = start () in
                  emit md; emit mx; emit mv; emit mz;
                  emit_lds fd ar (i + 1);
                  finish w0_at bc_mad_lds Instr.Cat_ialu;
                  skip := 1;
                  true
                | None -> false))))
    then ()
    else
    match op with
    | Instr.Label _ -> ()
    | _ ->
      let w0_at = !code_len in
      word_at.(i) <- w0_at;
      emit 0;
      let e2 a b = emit a; emit b in
      let ek (k, v) = e2 k v in
      let bop =
        match op with
        | Instr.Label _ -> assert false
        | Mov (d, a) -> (
          match ik a with
          | 0, s -> e2 (cki d) s; bc_mov_r
          | _, v -> e2 (cki d) v; bc_mov_c)
        | Movf (d, a) -> (
          match fk a with
          | 0, s -> e2 (ckf d) s; bc_movf_r
          | _, v -> e2 (ckf d) v; bc_movf_c)
        | Iadd (d, a, b) -> (
          match (ik a, ik b) with
          | (0, x), (0, y) -> emit (cki d); e2 x y; bc_iadd_rr
          | (0, x), (1, v) | (1, v), (0, x) -> emit (cki d); e2 x v; bc_iadd_rc
          | ka, kb -> e2 7 (cki d); ek ka; ek kb; bc_iop2)
        | Imul (d, a, b) -> (
          match (ik a, ik b) with
          | (0, x), (0, y) -> emit (cki d); e2 x y; bc_imul_rr
          | (0, x), (1, v) | (1, v), (0, x) -> emit (cki d); e2 x v; bc_imul_rc
          | ka, kb -> e2 8 (cki d); ek ka; ek kb; bc_iop2)
        | Imad (d, a, b, c) -> (
          match (ik a, ik b, ik c) with
          | (0, x), (0, y), (0, z) -> e2 (cki d) x; e2 y z; bc_imad_rrr
          | ((0, x), (1, v), (0, z) | (1, v), (0, x), (0, z)) ->
            e2 (cki d) x; e2 v z; bc_imad_rcr
          | ((0, x), (1, v), (1, w) | (1, v), (0, x), (1, w)) ->
            e2 (cki d) x; e2 v w; bc_imad_rcc
          | ka, kb, kc -> emit (cki d); ek ka; ek kb; ek kc; bc_imad_g)
        | Isub (d, a, b) -> e2 0 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Imin (d, a, b) -> e2 1 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Imax (d, a, b) -> e2 2 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Ishl (d, a, b) -> e2 3 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Ishr (d, a, b) -> e2 4 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Iand (d, a, b) -> e2 5 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Ior (d, a, b) -> e2 6 (cki d); ek (ik a); ek (ik b); bc_iop2
        | Idiv (d, a, b) -> emit (cki d); ek (ik a); ek (ik b); bc_idiv
        | Irem (d, a, b) -> emit (cki d); ek (ik a); ek (ik b); bc_irem
        | Setp (cmp, d, a, b) -> (
          let c = cmp_code cmp in
          match (ik a, ik b) with
          | (0, x), (0, y) -> e2 c (ckp d); e2 x y; bc_setp_rr
          | (0, x), (1, v) -> e2 c (ckp d); e2 x v; bc_setp_rc
          | ka, kb -> e2 c (ckp d); ek ka; ek kb; bc_setp_g)
        | And_p (d, a, b) -> emit (ckp d); e2 (ckp a) (ckp b); bc_andp
        | Or_p (d, a, b) -> emit (ckp d); e2 (ckp a) (ckp b); bc_orp
        | Not_p (d, a) -> e2 (ckp d) (ckp a); bc_notp
        | Fadd (d, a, b) -> (
          match (fk a, fk b) with
          | (0, x), (0, y) -> emit (ckf d); e2 x y; bc_fadd_rr
          | ka, kb -> e2 0 (ckf d); ek ka; ek kb; bc_f2_g)
        | Fsub (d, a, b) -> (
          match (fk a, fk b) with
          | (0, x), (0, y) -> emit (ckf d); e2 x y; bc_fsub_rr
          | ka, kb -> e2 1 (ckf d); ek ka; ek kb; bc_f2_g)
        | Fmul (d, a, b) -> (
          match (fk a, fk b) with
          | (0, x), (0, y) -> emit (ckf d); e2 x y; bc_fmul_rr
          | ka, kb -> e2 2 (ckf d); ek ka; ek kb; bc_f2_g)
        | Fmax (d, a, b) -> (
          match (fk a, fk b) with
          | (0, x), (0, y) -> emit (ckf d); e2 x y; bc_fmax_rr
          | ka, kb -> e2 3 (ckf d); ek ka; ek kb; bc_f2_g)
        | Fmin (d, a, b) -> (
          match (fk a, fk b) with
          | (0, x), (0, y) -> emit (ckf d); e2 x y; bc_fmin_rr
          | ka, kb -> e2 4 (ckf d); ek ka; ek kb; bc_f2_g)
        | Ffma (d, a, b, c) -> (
          match (fk a, fk b, fk c) with
          | (0, x), (0, y), (0, z) -> e2 (ckf d) x; e2 y z; bc_ffma_rrr
          | ka, kb, kc -> emit (ckf d); ek ka; ek kb; ek kc; bc_ffma_g)
        | Ld_global (d, slot, addr) ->
          e2 (ckf d) (fresh_mem ()); emit slot; ek (ik addr); bc_ldg
        | Ld_global_i (d, slot, addr) ->
          e2 (cki d) (fresh_mem ()); emit slot; ek (ik addr); bc_ldgi
        | Ld_shared (d, addr) ->
          e2 (ckf d) (fresh_mem ()); ek (ik addr); bc_lds
        | Ld_shared_i (d, addr) ->
          e2 (cki d) (fresh_mem ()); ek (ik addr); bc_ldsi
        | St_global (slot, addr, v) ->
          e2 (fresh_mem ()) slot; ek (ik addr); ek (fk v);
          if is_half then bc_stg_h else bc_stg
        | St_shared (addr, v) ->
          emit (fresh_mem ()); ek (ik addr); ek (fk v);
          if is_half then bc_sts_h else bc_sts
        | St_shared_i (addr, v) ->
          emit (fresh_mem ()); ek (ik addr); ek (ik v); bc_stsi
        | Atom_global_add (slot, addr, v) ->
          emit slot; ek (ik addr); ek (fk v);
          if is_half then bc_atom_h else bc_atom
        | Bra target -> (
          match Hashtbl.find_opt labels target with
          | Some oi ->
            fixups := (!code_len, oi) :: !fixups;
            emit 0;
            bc_bra
          | None -> emit (undef target); bc_bra_undef)
        | Bar -> bc_bar
        | Ret -> bc_ret
      in
      let stride = !code_len - w0_at in
      let gbits =
        match guard with
        | None -> 0
        | Some (preg, sense) ->
          let preg = ckp preg in
          if preg > 0xffff then
            trap "guard predicate register %%p%d exceeds the bytecode field"
              preg;
          (if sense then 0x100 else 0x200) lor (preg lsl 26)
      in
      let cat =
        match Instr.categorize op with Some c -> cat_code c | None -> 0
      in
      !code_buf.(w0_at) <- bop lor gbits lor (cat lsl 18) lor (stride lsl 22)
  done;
  let n_words = !code_len in
  let bc = Array.sub !code_buf 0 n_words in
  (* Branch targets: original pc -> word offset of the first real
     instruction at or after it (targets land on labels). *)
  let word_of_orig = Array.make (max 1 n_body) n_words in
  (let nxt = ref n_words in
   for i = n_body - 1 downto 0 do
     if word_at.(i) >= 0 then nxt := word_at.(i);
     word_of_orig.(i) <- !nxt
   done);
  List.iter (fun (wi, oi) -> bc.(wi) <- word_of_orig.(oi)) !fixups;
  (* Word offset of each instruction's w0 -> original pc, for traps. *)
  let opc_of = Array.make (max 1 n_words) n_body in
  Array.iteri (fun i w -> if w >= 0 then opc_of.(w) <- i) word_at;
  let fconsts = Array.of_list (List.rev !frev) in
  let undef_names = Array.of_list (List.rev !urev) in
  let n_mem = max 1 !n_mem in
  (* --- execution ------------------------------------------------------- *)
  let n_threads = bx * by * bz in
  let n_blocks = gx * gy * gz in
  let pool = Atomic.make (max_dynamic - 1) in
  let mk_ctx () =
    { k = zero_counters ();
      pool;
      lease = 0;
      n_warps;
      shared_f = Array.make (max 1 p.shared_words) 0.0;
      shared_i = Array.make (max 1 p.shared_int_words) 0;
      ord = Array.make (n_mem * n_warps * 32) 0;
      grps = Array.init (n_mem * n_warps) (fun _ -> [||]);
      gid = 1;
      stamp = 1;
      threads =
        Array.init n_threads (fun linear ->
            { fregs = Array.make (max 1 p.n_fregs) 0.0;
              iregs = Array.make (p.n_iregs + 6) 0;
              pregs = Array.make (max 1 p.n_pregs) false;
              pc = 0;
              lin = linear;
              tid_x = linear mod bx;
              tid_y = linear / bx mod by;
              tid_z = linear / (bx * by) }) }
  in
  (* The dispatch loop. The register files, counter shard and shared
     memories are hoisted into locals for the whole barrier phase; every
     case ends in a tail call. Register/operand indices were validated at
     lowering, so register-file accesses are unchecked; memory accesses
     keep their explicit bounds traps. *)
  let run_to_barrier ctx th =
    let k = ctx.k in
    let ir = th.iregs and fr = th.fregs and pr = th.pregs in
    let lin = th.lin in
    let shf = ctx.shared_f and shi = ctx.shared_i in
    let rec go pc =
      if pc >= n_words then
        trap_at ctx.k (n_body - 1) "%s: fell off end of kernel" p.name
      else begin
        (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1 else refill ctx);
        let w0 = Array.unsafe_get bc pc in
        let g = w0 land 0x300 in
        if
          g <> 0
          && Array.unsafe_get pr ((w0 lsr 26) land 0xffff) <> (g = 0x100)
        then begin
          k.predicated_off <- k.predicated_off + 1;
          bump_cat k ((w0 lsr 18) land 0xf);
          go (pc + ((w0 lsr 22) land 0xf))
        end
        else
          match w0 land 0xff with
          | 0 (* mov_r *) ->
            k.mov <- k.mov + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2)));
            go (pc + 3)
          | 1 (* mov_c *) ->
            k.mov <- k.mov + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get bc (pc + 2));
            go (pc + 3)
          | 2 (* movf_r *) ->
            k.mov <- k.mov + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get fr (Array.unsafe_get bc (pc + 2)));
            go (pc + 3)
          | 3 (* movf_c *) ->
            k.mov <- k.mov + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get fconsts (Array.unsafe_get bc (pc + 2)));
            go (pc + 3)
          | 4 (* iadd_rr *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
              + Array.unsafe_get ir (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 5 (* iadd_rc *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
              + Array.unsafe_get bc (pc + 3));
            go (pc + 4)
          | 6 (* imul_rr *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
              * Array.unsafe_get ir (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 7 (* imul_rc *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
              * Array.unsafe_get bc (pc + 3));
            go (pc + 4)
          | 8 (* imad_rrr *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              ((Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
                * Array.unsafe_get ir (Array.unsafe_get bc (pc + 3)))
              + Array.unsafe_get ir (Array.unsafe_get bc (pc + 4)));
            go (pc + 5)
          | 9 (* imad_rcr *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              ((Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
                * Array.unsafe_get bc (pc + 3))
              + Array.unsafe_get ir (Array.unsafe_get bc (pc + 4)));
            go (pc + 5)
          | 10 (* iop2 *) ->
            k.ialu <- k.ialu + 1;
            let sub = Array.unsafe_get bc (pc + 1) in
            let d = Array.unsafe_get bc (pc + 2) in
            let va = Array.unsafe_get bc (pc + 4) in
            let x =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get ir va
              else va
            in
            let vb = Array.unsafe_get bc (pc + 6) in
            let y =
              if Array.unsafe_get bc (pc + 5) = 0 then Array.unsafe_get ir vb
              else vb
            in
            Array.unsafe_set ir d
              (match sub with
              | 0 -> x - y
              | 1 -> if x <= y then x else y
              | 2 -> if x >= y then x else y
              | 3 -> x lsl y
              | 4 -> x asr y
              | 5 -> x land y
              | 6 -> x lor y
              | 7 -> x + y
              | _ -> x * y);
            go (pc + 7)
          | 11 (* imad_g *) ->
            k.ialu <- k.ialu + 1;
            let d = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let x =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            let vb = Array.unsafe_get bc (pc + 5) in
            let y =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get ir vb
              else vb
            in
            let vc = Array.unsafe_get bc (pc + 7) in
            let z =
              if Array.unsafe_get bc (pc + 6) = 0 then Array.unsafe_get ir vc
              else vc
            in
            Array.unsafe_set ir d ((x * y) + z);
            go (pc + 8)
          | 12 (* idiv *) ->
            k.ialu <- k.ialu + 1;
            let d = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let x =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            let vb = Array.unsafe_get bc (pc + 5) in
            let y =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get ir vb
              else vb
            in
            if y = 0 then
              trap_at k (Array.unsafe_get opc_of pc) "%s: division by zero"
                p.name;
            Array.unsafe_set ir d (x / y);
            go (pc + 6)
          | 13 (* irem *) ->
            k.ialu <- k.ialu + 1;
            let d = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let x =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            let vb = Array.unsafe_get bc (pc + 5) in
            let y =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get ir vb
              else vb
            in
            if y = 0 then
              trap_at k (Array.unsafe_get opc_of pc) "%s: remainder by zero"
                p.name;
            Array.unsafe_set ir d (x mod y);
            go (pc + 6)
          | 14 (* setp_rr *) ->
            k.pred <- k.pred + 1;
            let x = Array.unsafe_get ir (Array.unsafe_get bc (pc + 3)) in
            let y = Array.unsafe_get ir (Array.unsafe_get bc (pc + 4)) in
            Array.unsafe_set pr
              (Array.unsafe_get bc (pc + 2))
              (match Array.unsafe_get bc (pc + 1) with
              | 0 -> x = y
              | 1 -> x <> y
              | 2 -> x < y
              | 3 -> x <= y
              | 4 -> x > y
              | _ -> x >= y);
            go (pc + 5)
          | 15 (* setp_rc *) ->
            k.pred <- k.pred + 1;
            let x = Array.unsafe_get ir (Array.unsafe_get bc (pc + 3)) in
            let y = Array.unsafe_get bc (pc + 4) in
            Array.unsafe_set pr
              (Array.unsafe_get bc (pc + 2))
              (match Array.unsafe_get bc (pc + 1) with
              | 0 -> x = y
              | 1 -> x <> y
              | 2 -> x < y
              | 3 -> x <= y
              | 4 -> x > y
              | _ -> x >= y);
            go (pc + 5)
          | 16 (* setp_g *) ->
            k.pred <- k.pred + 1;
            let va = Array.unsafe_get bc (pc + 4) in
            let x =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get ir va
              else va
            in
            let vb = Array.unsafe_get bc (pc + 6) in
            let y =
              if Array.unsafe_get bc (pc + 5) = 0 then Array.unsafe_get ir vb
              else vb
            in
            Array.unsafe_set pr
              (Array.unsafe_get bc (pc + 2))
              (match Array.unsafe_get bc (pc + 1) with
              | 0 -> x = y
              | 1 -> x <> y
              | 2 -> x < y
              | 3 -> x <= y
              | 4 -> x > y
              | _ -> x >= y);
            go (pc + 7)
          | 17 (* andp *) ->
            k.pred <- k.pred + 1;
            Array.unsafe_set pr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get pr (Array.unsafe_get bc (pc + 2))
              && Array.unsafe_get pr (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 18 (* orp *) ->
            k.pred <- k.pred + 1;
            Array.unsafe_set pr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get pr (Array.unsafe_get bc (pc + 2))
              || Array.unsafe_get pr (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 19 (* notp *) ->
            k.pred <- k.pred + 1;
            Array.unsafe_set pr
              (Array.unsafe_get bc (pc + 1))
              (not (Array.unsafe_get pr (Array.unsafe_get bc (pc + 2))));
            go (pc + 3)
          | 20 (* fadd_rr *) ->
            k.fp_other <- k.fp_other + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get fr (Array.unsafe_get bc (pc + 2))
              +. Array.unsafe_get fr (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 21 (* fsub_rr *) ->
            k.fp_other <- k.fp_other + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get fr (Array.unsafe_get bc (pc + 2))
              -. Array.unsafe_get fr (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 22 (* fmul_rr *) ->
            k.fp_other <- k.fp_other + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get fr (Array.unsafe_get bc (pc + 2))
              *. Array.unsafe_get fr (Array.unsafe_get bc (pc + 3)));
            go (pc + 4)
          | 23 (* fmax_rr *) ->
            k.fp_other <- k.fp_other + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Float.max
                 (Array.unsafe_get fr (Array.unsafe_get bc (pc + 2)))
                 (Array.unsafe_get fr (Array.unsafe_get bc (pc + 3))));
            go (pc + 4)
          | 24 (* fmin_rr *) ->
            k.fp_other <- k.fp_other + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              (Float.min
                 (Array.unsafe_get fr (Array.unsafe_get bc (pc + 2)))
                 (Array.unsafe_get fr (Array.unsafe_get bc (pc + 3))));
            go (pc + 4)
          | 25 (* f2_g *) ->
            k.fp_other <- k.fp_other + 1;
            let sub = Array.unsafe_get bc (pc + 1) in
            let d = Array.unsafe_get bc (pc + 2) in
            let va = Array.unsafe_get bc (pc + 4) in
            let x =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get fr va
              else Array.unsafe_get fconsts va
            in
            let vb = Array.unsafe_get bc (pc + 6) in
            let y =
              if Array.unsafe_get bc (pc + 5) = 0 then Array.unsafe_get fr vb
              else Array.unsafe_get fconsts vb
            in
            Array.unsafe_set fr d
              (match sub with
              | 0 -> x +. y
              | 1 -> x -. y
              | 2 -> x *. y
              | 3 -> Float.max x y
              | _ -> Float.min x y);
            go (pc + 7)
          | 26 (* ffma_rrr *) ->
            k.fma <- k.fma + 1;
            Array.unsafe_set fr
              (Array.unsafe_get bc (pc + 1))
              ((Array.unsafe_get fr (Array.unsafe_get bc (pc + 2))
                *. Array.unsafe_get fr (Array.unsafe_get bc (pc + 3)))
              +. Array.unsafe_get fr (Array.unsafe_get bc (pc + 4)));
            go (pc + 5)
          | 27 (* ffma_g *) ->
            k.fma <- k.fma + 1;
            let d = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let x =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get fr va
              else Array.unsafe_get fconsts va
            in
            let vb = Array.unsafe_get bc (pc + 5) in
            let y =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get fr vb
              else Array.unsafe_get fconsts vb
            in
            let vc = Array.unsafe_get bc (pc + 7) in
            let z =
              if Array.unsafe_get bc (pc + 6) = 0 then Array.unsafe_get fr vc
              else Array.unsafe_get fconsts vc
            in
            Array.unsafe_set fr d ((x *. y) +. z);
            go (pc + 8)
          | 28 (* ldg *) ->
            k.ld_global <- k.ld_global + 1;
            let ms = Array.unsafe_get bc (pc + 2) in
            let slot = Array.unsafe_get bc (pc + 3) in
            let va = Array.unsafe_get bc (pc + 5) in
            let a =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get ir va
              else va
            in
            record_global ctx ~store:false ms lin a;
            let b = Array.unsafe_get buffers slot in
            let len = Array.length b in
            if a < 0 || a >= len then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: global load out of bounds: %s[%d] (len %d)" p.name
                p.buf_params.(slot) a len;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get b a);
            go (pc + 6)
          | 29 (* ldgi *) ->
            k.ld_global <- k.ld_global + 1;
            let ms = Array.unsafe_get bc (pc + 2) in
            let slot = Array.unsafe_get bc (pc + 3) in
            let va = Array.unsafe_get bc (pc + 5) in
            let a =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get ir va
              else va
            in
            record_global ctx ~store:false ms lin a;
            let b = Array.unsafe_get buffers slot in
            let len = Array.length b in
            if a < 0 || a >= len then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: global load out of bounds: %s[%d] (len %d)" p.name
                p.buf_params.(slot) a len;
            Array.unsafe_set ir (Array.unsafe_get bc (pc + 1))
              (int_of_float (Array.unsafe_get b a));
            go (pc + 6)
          | 30 (* lds *) ->
            k.ld_shared <- k.ld_shared + 1;
            let ms = Array.unsafe_get bc (pc + 2) in
            let va = Array.unsafe_get bc (pc + 4) in
            let a =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get ir va
              else va
            in
            record_shared ctx ms lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get shf a);
            go (pc + 5)
          | 31 (* ldsi *) ->
            k.ld_shared <- k.ld_shared + 1;
            let ms = Array.unsafe_get bc (pc + 2) in
            let va = Array.unsafe_get bc (pc + 4) in
            let a =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get ir va
              else va
            in
            record_shared ctx ms lin a;
            if a < 0 || a >= shared_int_words then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: shared int load out of bounds: [%d] (size %d)" p.name a
                shared_int_words;
            Array.unsafe_set ir (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get shi a);
            go (pc + 5)
          | 32 (* stg *) ->
            k.st_global <- k.st_global + 1;
            let ms = Array.unsafe_get bc (pc + 1) in
            let slot = Array.unsafe_get bc (pc + 2) in
            let va = Array.unsafe_get bc (pc + 4) in
            let a =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get ir va
              else va
            in
            record_global ctx ~store:true ms lin a;
            let b = Array.unsafe_get buffers slot in
            let len = Array.length b in
            if a < 0 || a >= len then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: global store out of bounds: %s[%d] (len %d)" p.name
                p.buf_params.(slot) a len;
            let vv = Array.unsafe_get bc (pc + 6) in
            Array.unsafe_set b a
              (if Array.unsafe_get bc (pc + 5) = 0 then Array.unsafe_get fr vv
               else Array.unsafe_get fconsts vv);
            go (pc + 7)
          | 33 (* stg_h *) ->
            k.st_global <- k.st_global + 1;
            let ms = Array.unsafe_get bc (pc + 1) in
            let slot = Array.unsafe_get bc (pc + 2) in
            let va = Array.unsafe_get bc (pc + 4) in
            let a =
              if Array.unsafe_get bc (pc + 3) = 0 then Array.unsafe_get ir va
              else va
            in
            record_global ctx ~store:true ms lin a;
            let b = Array.unsafe_get buffers slot in
            let len = Array.length b in
            if a < 0 || a >= len then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: global store out of bounds: %s[%d] (len %d)" p.name
                p.buf_params.(slot) a len;
            let vv = Array.unsafe_get bc (pc + 6) in
            Array.unsafe_set b a
              (round_half
                 (if Array.unsafe_get bc (pc + 5) = 0 then
                    Array.unsafe_get fr vv
                  else Array.unsafe_get fconsts vv));
            go (pc + 7)
          | 34 (* sts *) ->
            k.st_shared <- k.st_shared + 1;
            let ms = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let a =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            record_shared ctx ms lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: shared store out of bounds: [%d] (size %d)" p.name a
                shared_words;
            let vv = Array.unsafe_get bc (pc + 5) in
            Array.unsafe_set shf a
              (if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get fr vv
               else Array.unsafe_get fconsts vv);
            go (pc + 6)
          | 35 (* sts_h *) ->
            k.st_shared <- k.st_shared + 1;
            let ms = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let a =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            record_shared ctx ms lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: shared store out of bounds: [%d] (size %d)" p.name a
                shared_words;
            let vv = Array.unsafe_get bc (pc + 5) in
            Array.unsafe_set shf a
              (round_half
                 (if Array.unsafe_get bc (pc + 4) = 0 then
                    Array.unsafe_get fr vv
                  else Array.unsafe_get fconsts vv));
            go (pc + 6)
          | 36 (* stsi *) ->
            k.st_shared <- k.st_shared + 1;
            let ms = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let a =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            record_shared ctx ms lin a;
            if a < 0 || a >= shared_int_words then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: shared int store out of bounds: [%d] (size %d)" p.name a
                shared_int_words;
            let vv = Array.unsafe_get bc (pc + 5) in
            Array.unsafe_set shi a
              (if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get ir vv
               else vv);
            go (pc + 6)
          | 37 (* atom *) ->
            k.atom <- k.atom + 1;
            let slot = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let a =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            let b = Array.unsafe_get buffers slot in
            let len = Array.length b in
            if a < 0 || a >= len then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: global load out of bounds: %s[%d] (len %d)" p.name
                p.buf_params.(slot) a len;
            let vv = Array.unsafe_get bc (pc + 5) in
            let v =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get fr vv
              else Array.unsafe_get fconsts vv
            in
            Array.unsafe_set b a (Array.unsafe_get b a +. v);
            go (pc + 6)
          | 38 (* atom_h *) ->
            k.atom <- k.atom + 1;
            let slot = Array.unsafe_get bc (pc + 1) in
            let va = Array.unsafe_get bc (pc + 3) in
            let a =
              if Array.unsafe_get bc (pc + 2) = 0 then Array.unsafe_get ir va
              else va
            in
            let b = Array.unsafe_get buffers slot in
            let len = Array.length b in
            if a < 0 || a >= len then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: global load out of bounds: %s[%d] (len %d)" p.name
                p.buf_params.(slot) a len;
            let vv = Array.unsafe_get bc (pc + 5) in
            let v =
              if Array.unsafe_get bc (pc + 4) = 0 then Array.unsafe_get fr vv
              else Array.unsafe_get fconsts vv
            in
            Array.unsafe_set b a (round_half (Array.unsafe_get b a +. v));
            go (pc + 6)
          | 39 (* bra *) ->
            k.branch <- k.branch + 1;
            go (Array.unsafe_get bc (pc + 1))
          | 40 (* bra_undef *) ->
            k.branch <- k.branch + 1;
            trap_at k (Array.unsafe_get opc_of pc) "%s: undefined label %s"
              p.name
              undef_names.(Array.unsafe_get bc (pc + 1))
          | 41 (* bar *) ->
            k.bar <- k.bar + 1;
            th.pc <- pc + 1;
            Hit_bar
          | 42 (* ret *) ->
            k.branch <- k.branch + 1;
            th.pc <- pc;
            Hit_ret
          | 43 (* ffma_run *) ->
            let n = Array.unsafe_get bc (pc + 1) in
            let base = pc + 2 in
            let stop_w = base + (n * 4) in
            (* The charge at the top of [go] paid for the first FFMA. *)
            if ctx.lease >= n - 1 then begin
              ctx.lease <- ctx.lease - (n - 1);
              k.fma <- k.fma + n;
              let o = ref base in
              while !o < stop_w do
                let o0 = !o in
                Array.unsafe_set fr
                  (Array.unsafe_get bc o0)
                  ((Array.unsafe_get fr (Array.unsafe_get bc (o0 + 1))
                    *. Array.unsafe_get fr (Array.unsafe_get bc (o0 + 2)))
                  +. Array.unsafe_get fr (Array.unsafe_get bc (o0 + 3)));
                o := o0 + 4
              done;
              go stop_w
            end
            else begin
              (* Budget nearly dry: charge per FFMA exactly as the unfused
                 code would, so an exhaustion trap carries the same counter
                 snapshot at the same point. *)
              k.fma <- k.fma + 1;
              Array.unsafe_set fr
                (Array.unsafe_get bc base)
                ((Array.unsafe_get fr (Array.unsafe_get bc (base + 1))
                  *. Array.unsafe_get fr (Array.unsafe_get bc (base + 2)))
                +. Array.unsafe_get fr (Array.unsafe_get bc (base + 3)));
              let o = ref (base + 4) in
              while !o < stop_w do
                (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
                 else refill ctx);
                k.fma <- k.fma + 1;
                let o0 = !o in
                Array.unsafe_set fr
                  (Array.unsafe_get bc o0)
                  ((Array.unsafe_get fr (Array.unsafe_get bc (o0 + 1))
                    *. Array.unsafe_get fr (Array.unsafe_get bc (o0 + 2)))
                  +. Array.unsafe_get fr (Array.unsafe_get bc (o0 + 3)));
                o := o0 + 4
              done;
              go stop_w
            end
          | 44 (* lds_add *) ->
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 3)) in
            record_shared ctx (Array.unsafe_get bc (pc + 2)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get opc_of pc)
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get shf a);
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 4))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 5))
              + Array.unsafe_get bc (pc + 6));
            go (pc + 7)
          | 45 (* add_lds *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
              + Array.unsafe_get bc (pc + 3));
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 6)) in
            record_shared ctx (Array.unsafe_get bc (pc + 5)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get bc (pc + 7))
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 4))
              (Array.unsafe_get shf a);
            go (pc + 8)
          | 46 (* mad_lds *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              ((Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
                * Array.unsafe_get bc (pc + 3))
              + Array.unsafe_get ir (Array.unsafe_get bc (pc + 4)));
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 7)) in
            record_shared ctx (Array.unsafe_get bc (pc + 6)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get bc (pc + 8))
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 5))
              (Array.unsafe_get shf a);
            go (pc + 9)
          | 47 (* imad_rcc *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              ((Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
                * Array.unsafe_get bc (pc + 3))
              + Array.unsafe_get bc (pc + 4));
            go (pc + 5)
          | 48 (* mad_lds_add_lds *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              ((Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
                * Array.unsafe_get bc (pc + 3))
              + Array.unsafe_get ir (Array.unsafe_get bc (pc + 4)));
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 7)) in
            record_shared ctx (Array.unsafe_get bc (pc + 6)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get bc (pc + 8))
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 5))
              (Array.unsafe_get shf a);
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 9))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 10))
              + Array.unsafe_get bc (pc + 11));
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 14)) in
            record_shared ctx (Array.unsafe_get bc (pc + 13)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get bc (pc + 15))
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 12))
              (Array.unsafe_get shf a);
            go (pc + 16)
          | 49 (* add_lds_add_lds *) ->
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 1))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 2))
              + Array.unsafe_get bc (pc + 3));
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 6)) in
            record_shared ctx (Array.unsafe_get bc (pc + 5)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get bc (pc + 7))
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 4))
              (Array.unsafe_get shf a);
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ialu <- k.ialu + 1;
            Array.unsafe_set ir
              (Array.unsafe_get bc (pc + 8))
              (Array.unsafe_get ir (Array.unsafe_get bc (pc + 9))
              + Array.unsafe_get bc (pc + 10));
            (if ctx.lease > 0 then ctx.lease <- ctx.lease - 1
             else refill ctx);
            k.ld_shared <- k.ld_shared + 1;
            let a = Array.unsafe_get ir (Array.unsafe_get bc (pc + 13)) in
            record_shared ctx (Array.unsafe_get bc (pc + 12)) lin a;
            if a < 0 || a >= shared_words then
              trap_at k (Array.unsafe_get bc (pc + 14))
                "%s: shared load out of bounds: [%d] (size %d)" p.name a
                shared_words;
            Array.unsafe_set fr (Array.unsafe_get bc (pc + 11))
              (Array.unsafe_get shf a);
            go (pc + 15)
          | _ -> assert false
      end
    in
    go th.pc
  in
  let exec_block ctx cx cy cz =
    let threads = ctx.threads in
    Array.fill ctx.shared_f 0 (Array.length ctx.shared_f) 0.0;
    Array.fill ctx.shared_i 0 (Array.length ctx.shared_i) 0;
    Array.iter
      (fun th ->
        Array.fill th.fregs 0 (Array.length th.fregs) 0.0;
        Array.fill th.iregs 0 (Array.length th.iregs) 0;
        Array.fill th.pregs 0 (Array.length th.pregs) false;
        let ir = th.iregs in
        Array.unsafe_set ir vt th.tid_x;
        Array.unsafe_set ir (vt + 1) th.tid_y;
        Array.unsafe_set ir (vt + 2) th.tid_z;
        Array.unsafe_set ir (vt + 3) cx;
        Array.unsafe_set ir (vt + 4) cy;
        Array.unsafe_set ir (vt + 5) cz;
        th.pc <- 0)
      threads;
    ctx.stamp <- ctx.stamp + 1;
    let where stop (th : thread) =
      (* After Hit_bar the pc sits one word past the Bar (stride 1);
         Ret leaves it on the Ret's own word. *)
      match stop with
      | Hit_bar ->
        Printf.sprintf "hit barrier at %s" (describe opc_of.(th.pc - 1))
      | Hit_ret -> Printf.sprintf "returned at %s" (describe opc_of.(th.pc))
    in
    let n_threads = Array.length threads in
    let rec phases () =
      let first = run_to_barrier ctx threads.(0) in
      for i = 1 to n_threads - 1 do
        let stop = run_to_barrier ctx threads.(i) in
        if stop <> first then
          raise
            (Trap
               (Printf.sprintf
                  "%s: barrier divergence: thread 0 %s but thread %d %s [%s]"
                  p.name
                  (where first threads.(0))
                  i
                  (where stop threads.(i))
                  (summary ctx.k)))
      done;
      ctx.stamp <- ctx.stamp + 1;
      match first with Hit_ret -> () | Hit_bar -> phases ()
    in
    phases ()
  in
  let exec_chunk ~chunk:_ ~offset ~size =
    let ctx = mk_ctx () in
    for b = offset to offset + size - 1 do
      exec_block ctx (b mod gx) (b / gx mod gy) (b / (gx * gy))
    done;
    ctx.k
  in
  let has_atomics =
    Array.exists
      (fun (i : Instr.t) ->
        match i.Instr.op with Instr.Atom_global_add _ -> true | _ -> false)
      body
  in
  let n_domains =
    let d =
      match domains with
      | Some d -> max 1 d
      | None -> Util.Parallel.recommended_domains ()
    in
    if has_atomics then 1 else max 1 (min d n_blocks)
  in
  let shards =
    Util.Parallel.run_chunks ~domains:n_domains ~total:n_blocks exec_chunk
  in
  let counters = zero_counters () in
  List.iter (fun shard -> add_into ~into:counters shard) shards;
  obs_export counters;
  counters
