exception Injected of string

(* One fault site: a deterministic period (fire every [period]-th call)
   and a call counter. Counters are atomics so worker domains can draw
   concurrently; the table itself is only written by [configure], which
   callers run before spawning domains. *)
type site = { period : int; calls : int Atomic.t }

let sites : (string, site) Hashtbl.t = Hashtbl.create 8

let period_of_rate rate =
  if rate <= 0.0 then None
  else if rate >= 1.0 then Some 1
  else Some (max 1 (int_of_float (Float.round (1.0 /. rate))))

let parse_error spec reason =
  invalid_arg (Printf.sprintf "Faultsim: bad ISAAC_FAULTS spec %S (%s)" spec reason)

let configure spec =
  Hashtbl.reset sites;
  if String.trim spec <> "" then
    String.split_on_char ',' spec
    |> List.iter (fun entry ->
           let entry = String.trim entry in
           if entry <> "" then
             match String.split_on_char ':' entry with
             | [ kind; rate ] -> (
               let kind = String.trim kind in
               if kind = "" then parse_error spec "empty fault kind";
               match float_of_string_opt (String.trim rate) with
               | None -> parse_error spec ("bad rate for " ^ kind)
               | Some r -> (
                 match period_of_rate r with
                 | None -> () (* rate 0: site disabled *)
                 | Some period ->
                   Hashtbl.replace sites kind { period; calls = Atomic.make 0 }))
             | _ -> parse_error spec ("malformed entry " ^ entry))

let () = configure (Env_config.string "ISAAC_FAULTS" "")

let fire kind =
  match Hashtbl.find_opt sites kind with
  | None -> false
  | Some s ->
    let n = 1 + Atomic.fetch_and_add s.calls 1 in
    n mod s.period = 0
