module Measure = Dps_interference.Measure
module Load = Dps_interference.Load
module Load_tracker = Dps_interference.Load_tracker
module Scratch = Dps_sim.Scratch
module Intvec = Dps_prelude.Intvec

type t = { link : int; key : int }

let make ~link ~key =
  assert (link >= 0);
  { link; key }

let load ~m reqs =
  let r = Load.zero m in
  Array.iter
    (fun { link; _ } ->
      assert (link < m);
      r.(link) <- r.(link) +. 1.)
    reqs;
  r

let measure_of ~measure reqs =
  Measure.interference measure (load ~m:(Measure.size measure) reqs)

(* Count the requests per distinct link ([ic], first touches flagged),
   then push each link's count through the scratch tracker in ascending
   link order. Every row then sums its loaded columns in ascending column
   order with the products [measure_of]'s row scan forms, and the columns
   that scan also visits carry zero load and add exactly 0, so each row
   value — and the maximum — is bit-identical to [measure_of]. *)
let measure_of_live s ~measure reqs live =
  let links = s.Scratch.spare in
  Intvec.clear links;
  for i = 0 to Intvec.length live - 1 do
    let link = reqs.(Intvec.get live i).link in
    if not s.Scratch.flags.(link) then begin
      s.Scratch.flags.(link) <- true;
      s.Scratch.ic.(link) <- 0;
      Intvec.push links link
    end;
    s.Scratch.ic.(link) <- s.Scratch.ic.(link) + 1
  done;
  Intvec.sort links;
  let tracker = Scratch.tracker s measure in
  for i = 0 to Intvec.length links - 1 do
    let link = Intvec.get links i in
    s.Scratch.flags.(link) <- false;
    Load_tracker.add_count tracker link s.Scratch.ic.(link)
  done;
  let i = Load_tracker.interference tracker in
  Load_tracker.reset tracker;
  i
