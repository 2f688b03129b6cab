open Ptx.Types
module B = Ptx.Builder
module I = Ptx.Instr
module P = Gemm_params

let ceil_div a b = (a + b - 1) / b

let grid (i : P.input) (c : P.config) = (ceil_div i.m c.ml, ceil_div i.n c.nl, c.kg)
let block (c : P.config) = (P.threads_per_block c, 1, 1)

(* Emit a bounds-checked global load of [slot][addr] into freg [dst],
   leaving 0 when the guard predicate [p] is false. The three §8.3
   strategies share a call site. *)
let emit_guarded_load b ~bounds ~p ~dst ~slot ~addr =
  B.emit b (I.Movf (dst, Fimm 0.0));
  match (bounds : P.bounds_mode) with
  | Unchecked -> B.emit b (I.Ld_global (dst, slot, Ireg addr))
  | Predicated -> B.emit b ~guard:(p, true) (I.Ld_global (dst, slot, Ireg addr))
  | Branch ->
    let skip = B.fresh_label b "skip_ld" in
    B.emit b ~guard:(p, false) (I.Bra skip);
    B.emit b (I.Ld_global (dst, slot, Ireg addr));
    B.place_label b skip

let generate_gen ?(bounds = P.Predicated) ?(alpha = 1.0) ?(beta = 0.0) ?(batch = 1)
    ?(epilogue = P.Plain) ~gather (i : P.input) (c : P.config) =
  assert (P.structurally_legal i c);
  assert (batch >= 1);
  assert (batch = 1 || not gather);
  assert (epilogue = P.Plain || c.kg = 1);
  (* Grid-level reduction splitting accumulates through atomics, so the
     beta term must be folded into C before launch (see [run]). *)
  assert (c.kg = 1 || beta = 0.0);
  let b = B.create ~name:(P.describe_name i c) ~dtype:i.dtype in
  let a_slot = B.buf_param b "A" in
  let b_slot = B.buf_param b "B" in
  let c_slot = B.buf_param b "C" in
  (* Implicit-GEMM gather (CONV, §3.3): A row/reduction indices go through
     precomputed indirection tables, "scrambling" loads from the image
     exactly as cuDNN's IMPLICIT_PRECOMP_GEMM does. Tables are padded to
     tile boundaries by the caller so the lookups themselves need no
     bounds predicate. *)
  let lut_slots =
    if gather then Some (B.buf_param b "LUT_ROW", B.buf_param b "LUT_DELTA") else None
  in
  let bias_slot =
    match epilogue with
    | P.Bias | P.Bias_relu -> Some (B.buf_param b "BIAS")
    | P.Plain | P.Relu -> None
  in
  let pm = B.int_param b "M" in
  let pn = B.int_param b "N" in
  let pk = B.int_param b "K" in
  let threads = P.threads_per_block c in
  let mn_threads = c.ml / c.ms * (c.nl / c.ns) in
  let uc = c.u / c.kl in
  let la = c.ml * c.u / threads in
  let lb = c.nl * c.u / threads in
  (* Shared layout: A panel [u][ml] at 0, B panel [u][nl] after it; the
     K_L reduction scratch reuses the staging region once the main loop is
     done. *)
  let as_base = 0 in
  let bs_base = c.ml * c.u in
  B.set_shared b ~words:(P.shared_words c) ~int_words:0;

  (* Thread decomposition. *)
  let tid = B.mov_i b (Ispecial Tid_x) in
  let tmn = B.rem_i b (Ireg tid) (Iimm mn_threads) in
  let tk = B.div_i b (Ireg tid) (Iimm mn_threads) in
  let tm = B.rem_i b (Ireg tmn) (Iimm (c.ml / c.ms)) in
  let tn = B.div_i b (Ireg tmn) (Iimm (c.ml / c.ms)) in
  let tm_ms = B.mul_i b (Ireg tm) (Iimm c.ms) in
  let tn_ns = B.mul_i b (Ireg tn) (Iimm c.ns) in
  let row0 = B.mul_i b (Ispecial Ctaid_x) (Iimm c.ml) in
  (* Strided batching folds the batch index into the Y grid dimension
     (ctaid.y = batch_index * gn + column_block), like
     cublasGemmStridedBatched: each batch element's operands live at
     fixed strides in the same buffers. *)
  let gn = ceil_div i.n c.nl in
  let col0, a_base, b_base, c_base =
    if batch = 1 then
      (B.mul_i b (Ispecial Ctaid_y) (Iimm c.nl), None, None, None)
    else begin
      let bn = B.rem_i b (Ispecial Ctaid_y) (Iimm gn) in
      let bidx = B.div_i b (Ispecial Ctaid_y) (Iimm gn) in
      ( B.mul_i b (Ireg bn) (Iimm c.nl),
        Some (B.mul_i b (Ireg bidx) (Iimm (i.m * i.k))),
        Some (B.mul_i b (Ireg bidx) (Iimm (i.k * i.n))),
        Some (B.mul_i b (Ireg bidx) (Iimm (i.m * i.n))) )
    end
  in
  let with_base base addr =
    match base with None -> addr | Some off -> B.add_i b (Ireg off) (Ireg addr)
  in

  (* K-range of this grid slice (K_G splitting). *)
  let ktmp = B.add_i b pk (Iimm (c.kg - 1)) in
  let kc = B.div_i b (Ireg ktmp) (Iimm c.kg) in
  let k0 = B.mul_i b (Ispecial Ctaid_z) (Ireg kc) in
  let kend_raw = B.add_i b (Ireg k0) (Ireg kc) in
  let kend = B.min_i b (Ireg kend_raw) pk in

  (* Accumulators: ms*ns*ks independent chains. *)
  let acc =
    Array.init (c.ms * c.ns * c.ks)
      (fun _ ->
        let r = B.fresh_f b in
        B.emit b (I.Movf (r, Fimm 0.0));
        r)
  in
  let fa = Array.init c.ms (fun _ -> B.fresh_f b) in
  let fb = Array.init c.ns (fun _ -> B.fresh_f b) in
  let fstage = B.fresh_f b in

  let kk = B.mov_i b (Ireg k0) in
  let after_loop = B.fresh_label b "after_loop" in
  let p_enter = B.setp b Lt (Ireg kk) (Ireg kend) in
  B.emit b ~guard:(p_enter, false) (I.Bra after_loop);
  let main_loop = B.fresh_label b "main_loop" in
  B.place_label b main_loop;

  (* --- staging: cooperative loads of the A and B panels ----------------- *)
  let stage ~elems ~tile_minor ~slot ~base ~origin ~bound ~addr_of =
    (* Panel layout in shared memory is [u][tile_minor]; thread [tid]
       handles flat elements tid, tid+threads, ... *)
    for idx = 0 to elems / threads - 1 do
      let flat = B.mad_i b (Iimm idx) (Iimm threads) (Ireg tid) in
      let u_idx = B.div_i b (Ireg flat) (Iimm tile_minor) in
      let minor = B.rem_i b (Ireg flat) (Iimm tile_minor) in
      let g_minor = B.add_i b (Ireg origin) (Ireg minor) in
      let gk = B.add_i b (Ireg kk) (Ireg u_idx) in
      let p1 = B.setp b Lt (Ireg g_minor) bound in
      let p2 = B.setp b Lt (Ireg gk) (Ireg kend) in
      let p = B.and_p b p1 p2 in
      let addr = addr_of ~g_minor ~gk in
      emit_guarded_load b ~bounds ~p ~dst:fstage ~slot ~addr;
      let saddr = B.mad_i b (Ireg u_idx) (Iimm tile_minor) (Ireg minor) in
      let saddr = if base = 0 then saddr else B.add_i b (Ireg saddr) (Iimm base) in
      B.emit b (I.St_shared (Ireg saddr, Freg fstage))
    done
  in
  let a_addr_of =
    match lut_slots with
    | Some (row_slot, delta_slot) ->
      fun ~g_minor ~gk ->
        let ra = B.fresh_i b in
        B.emit b (I.Ld_global_i (ra, row_slot, Ireg g_minor));
        let rd = B.fresh_i b in
        B.emit b (I.Ld_global_i (rd, delta_slot, Ireg gk));
        B.add_i b (Ireg ra) (Ireg rd)
    | None ->
      fun ~g_minor ~gk ->
        with_base a_base
          (if i.a_trans then B.mad_i b (Ireg gk) pm (Ireg g_minor)
           else B.mad_i b (Ireg g_minor) pk (Ireg gk))
  in
  stage ~elems:(la * threads) ~tile_minor:c.ml ~slot:a_slot ~base:as_base ~origin:row0
    ~bound:pm ~addr_of:a_addr_of;
  stage ~elems:(lb * threads) ~tile_minor:c.nl ~slot:b_slot ~base:bs_base ~origin:col0
    ~bound:pn
    ~addr_of:(fun ~g_minor ~gk ->
      with_base b_base
        (if i.b_trans then B.mad_i b (Ireg g_minor) pk (Ireg gk)
         else B.mad_i b (Ireg gk) pn (Ireg g_minor)));
  B.emit b I.Bar;

  (* --- fully unrolled inner loop over this thread group's K-slice ------- *)
  for uu = 0 to uc - 1 do
    let u_idx = B.mad_i b (Ireg tk) (Iimm uc) (Iimm uu) in
    let base_a = B.mad_i b (Ireg u_idx) (Iimm c.ml) (Ireg tm_ms) in
    Array.iteri
      (fun si r ->
        let addr = if si = 0 then base_a else B.add_i b (Ireg base_a) (Iimm si) in
        B.emit b (I.Ld_shared (r, Ireg addr)))
      fa;
    let base_b = B.mad_i b (Ireg u_idx) (Iimm c.nl) (Ireg tn_ns) in
    Array.iteri
      (fun sj r ->
        let addr = B.add_i b (Ireg base_b) (Iimm (bs_base + sj)) in
        B.emit b (I.Ld_shared (r, Ireg addr)))
      fb;
    for si = 0 to c.ms - 1 do
      for sj = 0 to c.ns - 1 do
        let slot = (((si * c.ns) + sj) * c.ks) + (uu mod c.ks) in
        B.emit b (I.Ffma (acc.(slot), Freg fa.(si), Freg fb.(sj), Freg acc.(slot)))
      done
    done
  done;
  B.emit b I.Bar;

  B.emit b (I.Iadd (kk, Ireg kk, Iimm c.u));
  let p_loop = B.setp b Lt (Ireg kk) (Ireg kend) in
  B.emit b ~guard:(p_loop, true) (I.Bra main_loop);
  B.place_label b after_loop;

  (* --- K_S register reduction ------------------------------------------- *)
  if c.ks > 1 then
    for si = 0 to c.ms - 1 do
      for sj = 0 to c.ns - 1 do
        let base = ((si * c.ns) + sj) * c.ks in
        for s = 1 to c.ks - 1 do
          B.emit b (I.Fadd (acc.(base), Freg acc.(base), Freg acc.(base + s)))
        done
      done
    done;
  let acc_of si sj = acc.(((si * c.ns) + sj) * c.ks) in

  (* --- K_L reduction through shared memory ------------------------------ *)
  let p_owner =
    if c.kl > 1 then begin
      let ftmp = B.fresh_f b in
      let scratch_addr si sj =
        let row_l = B.add_i b (Ireg tm_ms) (Iimm si) in
        let a = B.mad_i b (Ireg row_l) (Iimm c.nl) (Ireg tn_ns) in
        B.add_i b (Ireg a) (Iimm sj)
      in
      for g = 1 to c.kl - 1 do
        let pg = B.setp b Eq (Ireg tk) (Iimm g) in
        for si = 0 to c.ms - 1 do
          for sj = 0 to c.ns - 1 do
            let addr = scratch_addr si sj in
            B.emit b ~guard:(pg, true) (I.St_shared (Ireg addr, Freg (acc_of si sj)))
          done
        done;
        B.emit b I.Bar;
        let p0 = B.setp b Eq (Ireg tk) (Iimm 0) in
        for si = 0 to c.ms - 1 do
          for sj = 0 to c.ns - 1 do
            let addr = scratch_addr si sj in
            B.emit b ~guard:(p0, true) (I.Ld_shared (ftmp, Ireg addr));
            B.emit b ~guard:(p0, true)
              (I.Fadd (acc_of si sj, Freg (acc_of si sj), Freg ftmp))
          done
        done;
        B.emit b I.Bar
      done;
      Some (B.setp b Eq (Ireg tk) (Iimm 0))
    end
    else None
  in

  (* --- store / atomic accumulation of the output tile -------------------
     Epilogue computes alpha*acc (+ beta*C_old when kg = 1). *)
  let row_base = B.add_i b (Ireg row0) (Ireg tm_ms) in
  let col_base = B.add_i b (Ireg col0) (Ireg tn_ns) in
  let fold = B.fresh_f b in
  for si = 0 to c.ms - 1 do
    for sj = 0 to c.ns - 1 do
      let row = if si = 0 then row_base else B.add_i b (Ireg row_base) (Iimm si) in
      let col = if sj = 0 then col_base else B.add_i b (Ireg col_base) (Iimm sj) in
      let pr = B.setp b Lt (Ireg row) pm in
      let pc = B.setp b Lt (Ireg col) pn in
      let p = B.and_p b pr pc in
      let p = match p_owner with None -> p | Some po -> B.and_p b p po in
      let addr = with_base c_base (B.mad_i b (Ireg row) pn (Ireg col)) in
      let acc_reg = acc_of si sj in
      let value =
        if alpha = 1.0 && beta = 0.0 && epilogue = P.Plain then acc_reg
        else begin
          if beta <> 0.0 then begin
            B.emit b (I.Movf (fold, Fimm 0.0));
            B.emit b ~guard:(p, true) (I.Ld_global (fold, c_slot, Ireg addr));
            B.emit b (I.Fmul (fold, Freg fold, Fimm beta));
            B.emit b (I.Ffma (fold, Freg acc_reg, Fimm alpha, Freg fold))
          end
          else if alpha <> 1.0 then B.emit b (I.Fmul (fold, Freg acc_reg, Fimm alpha))
          else B.emit b (I.Movf (fold, Freg acc_reg));
          (match bias_slot with
           | Some slot ->
             (* Per-output-column bias, loaded under the same bounds
                predicate as the store. *)
             let fbias = B.fresh_f b in
             B.emit b (I.Movf (fbias, Fimm 0.0));
             B.emit b ~guard:(p, true) (I.Ld_global (fbias, slot, Ireg col));
             B.emit b (I.Fadd (fold, Freg fold, Freg fbias))
           | None -> ());
          (match epilogue with
           | P.Relu | P.Bias_relu -> B.emit b (I.Fmax (fold, Freg fold, Fimm 0.0))
           | P.Plain | P.Bias -> ());
          fold
        end
      in
      if c.kg > 1 then
        B.emit b ~guard:(p, true) (I.Atom_global_add (c_slot, Ireg addr, Freg value))
      else B.emit b ~guard:(p, true) (I.St_global (c_slot, Ireg addr, Freg value))
    done
  done;
  B.finish b

let generate ?bounds ?alpha ?beta ?epilogue i c =
  generate_gen ?bounds ?alpha ?beta ?epilogue ~gather:false i c

let generate_batched ?bounds ~batch i c =
  generate_gen ?bounds ~batch ~gather:false i c

let generate_gather ?bounds i c = generate_gen ?bounds ~gather:true i c

let run_counted ?bounds ?(alpha = 1.0) ?(beta = 0.0) ?(epilogue = P.Plain) ?bias
    ?domains (i : P.input) (c : P.config) ~a ~b ?c_in () =
  let expect_a = i.m * i.k and expect_b = i.k * i.n in
  if Array.length a <> expect_a then
    invalid_arg (Printf.sprintf "Gemm.run: A has %d elements, expected %d"
                   (Array.length a) expect_a);
  if Array.length b <> expect_b then
    invalid_arg (Printf.sprintf "Gemm.run: B has %d elements, expected %d"
                   (Array.length b) expect_b);
  let out =
    match c_in with
    | None -> Array.make (i.m * i.n) 0.0
    | Some init ->
      if Array.length init <> i.m * i.n then invalid_arg "Gemm.run: bad C size";
      Array.copy init
  in
  (* With grid-level splitting the kernel accumulates via atomics, so the
     beta term is folded into C on the host first and beta=0 is passed to
     the generator. *)
  let kernel_beta = if c.kg > 1 then 0.0 else beta in
  if c.kg > 1 then
    Array.iteri (fun idx v -> out.(idx) <- beta *. v) out;
  let program =
    generate_gen ?bounds ~alpha ~beta:kernel_beta ~epilogue ~gather:false i c
  in
  let bias_bufs =
    match (epilogue, bias) with
    | (P.Bias | P.Bias_relu), Some bias ->
      if Array.length bias <> i.n then invalid_arg "Gemm.run: bias must have N elements";
      [ ("BIAS", bias) ]
    | (P.Bias | P.Bias_relu), None -> invalid_arg "Gemm.run: epilogue needs ~bias"
    | (P.Plain | P.Relu), _ -> []
  in
  let counters =
    Ptx.Interp.run ?domains program ~grid:(grid i c) ~block:(block c)
      ~bufs:([ ("A", a); ("B", b); ("C", out) ] @ bias_bufs)
      ~iargs:[ ("M", i.m); ("N", i.n); ("K", i.k) ]
  in
  (out, counters)

let run ?bounds ?alpha ?beta ?epilogue ?bias ?c_in ?domains i c ~a ~b =
  fst (run_counted ?bounds ?alpha ?beta ?epilogue ?bias ?domains i c ~a ~b ?c_in ())

let run_batched ?bounds ~batch (i : P.input) (c : P.config) ~a ~b =
  if Array.length a <> batch * i.m * i.k then invalid_arg "Gemm.run_batched: bad A";
  if Array.length b <> batch * i.k * i.n then invalid_arg "Gemm.run_batched: bad B";
  let program = generate_batched ?bounds ~batch i c in
  let out = Array.make (batch * i.m * i.n) 0.0 in
  let gm, gn, gk = grid i c in
  let (_ : Ptx.Interp.counters) =
    Ptx.Interp.run program
      ~grid:(gm, gn * batch, gk)
      ~block:(block c)
      ~bufs:[ ("A", a); ("B", b); ("C", out) ]
      ~iargs:[ ("M", i.m); ("N", i.n); ("K", i.k) ]
  in
  out

let reference ?(alpha = 1.0) ?(beta = 0.0) ?(epilogue = P.Plain) ?bias ?c_in
    (i : P.input) ~a ~b =
  let get_a m k = if i.a_trans then a.((k * i.m) + m) else a.((m * i.k) + k) in
  let get_b k n = if i.b_trans then b.((n * i.k) + k) else b.((k * i.n) + n) in
  let out = Array.make (i.m * i.n) 0.0 in
  let round = if i.dtype = F16 then round_half else Fun.id in
  for m = 0 to i.m - 1 do
    for n = 0 to i.n - 1 do
      let acc = ref 0.0 in
      for k = 0 to i.k - 1 do
        acc := !acc +. (get_a m k *. get_b k n)
      done;
      let old =
        match c_in with Some init -> init.((m * i.n) + n) | None -> 0.0
      in
      let v = (alpha *. !acc) +. (beta *. old) in
      let v =
        match (epilogue, bias) with
        | (P.Bias | P.Bias_relu), Some bias -> v +. bias.(n)
        | _ -> v
      in
      let v =
        match epilogue with
        | P.Relu | P.Bias_relu -> Float.max 0.0 v
        | P.Plain | P.Bias -> v
      in
      out.((m * i.n) + n) <- round v
    done
  done;
  out
