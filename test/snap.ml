(* One metric read out of a telemetry snapshot, [None] when the snapshot
   has no metric of that name and kind. *)

let counter snap name =
  match Telemetry.Snapshot.find snap name with
  | Some { Telemetry.Snapshot.value = Telemetry.Snapshot.Counter n; _ } -> Some n
  | Some _ | None -> None

let histogram snap name =
  match Telemetry.Snapshot.find snap name with
  | Some { Telemetry.Snapshot.value = Telemetry.Snapshot.Histogram sum; _ } -> Some sum
  | Some _ | None -> None
