type mix = {
  ialu : int;
  fma : int;
  fp_other : int;
  ld_global : int;
  st_global : int;
  ld_shared : int;
  st_shared : int;
  atom : int;
  bar : int;
  branch : int;
  pred : int;
  mov : int;
}

let zero =
  { ialu = 0; fma = 0; fp_other = 0; ld_global = 0; st_global = 0;
    ld_shared = 0; st_shared = 0; atom = 0; bar = 0; branch = 0; pred = 0; mov = 0 }

let count_instr m (i : Instr.t) =
  match Instr.categorize i.op with
  | None -> m
  | Some Cat_ialu -> { m with ialu = m.ialu + 1 }
  | Some Cat_fma -> { m with fma = m.fma + 1 }
  | Some Cat_fp_other -> { m with fp_other = m.fp_other + 1 }
  | Some Cat_ld_global -> { m with ld_global = m.ld_global + 1 }
  | Some Cat_st_global -> { m with st_global = m.st_global + 1 }
  | Some Cat_ld_shared -> { m with ld_shared = m.ld_shared + 1 }
  | Some Cat_st_shared -> { m with st_shared = m.st_shared + 1 }
  | Some Cat_atom -> { m with atom = m.atom + 1 }
  | Some Cat_bar -> { m with bar = m.bar + 1 }
  | Some Cat_branch -> { m with branch = m.branch + 1 }
  | Some Cat_pred -> { m with pred = m.pred + 1 }
  | Some Cat_mov -> { m with mov = m.mov + 1 }

let of_program (p : Program.t) = Array.fold_left count_instr zero p.body
