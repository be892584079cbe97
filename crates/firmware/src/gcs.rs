//! Ground-station side of the MAVLink link, plus the vehicle-side
//! mission-upload receiver — the paper's DroneKit/MissionPlanner role:
//! "connect to the drone, issue flight commands, and monitor the drone"
//! (§4), including reconfiguring the mission over the link.
//!
//! The mission upload follows the MAVLink handshake: the GCS announces
//! `MISSION_COUNT`, the vehicle requests each item in order with
//! `MISSION_REQUEST`, and the vehicle closes with `MISSION_ACK`.

use crate::mavlink::Message;
use crate::mission::{Mission, MissionItem};
use drone_math::Vec3;

/// `MAV_CMD_COMPONENT_ARM_DISARM`-style opcode used by [`GroundStation::arm_command`].
pub const CMD_ARM: u16 = 400;

/// Wire encoding of one mission item.
fn encode_item(seq: u16, item: &MissionItem) -> Message {
    match *item {
        MissionItem::Takeoff { altitude } => Message::MissionItem {
            seq,
            kind: 0,
            x: 0.0,
            y: 0.0,
            z: altitude as f32,
            param: 0.0,
        },
        // Yaw is not carried over the wire (the reference autopilot's
        // NAV_WAYPOINT leaves yaw to the vehicle as well).
        MissionItem::Waypoint {
            position,
            acceptance_radius,
            yaw: _,
        } => Message::MissionItem {
            seq,
            kind: 1,
            x: position.x as f32,
            y: position.y as f32,
            z: position.z as f32,
            param: acceptance_radius as f32,
        },
        MissionItem::Loiter { seconds } => Message::MissionItem {
            seq,
            kind: 2,
            x: 0.0,
            y: 0.0,
            z: 0.0,
            param: seconds as f32,
        },
        MissionItem::Land => Message::MissionItem {
            seq,
            kind: 3,
            x: 0.0,
            y: 0.0,
            z: 0.0,
            param: 0.0,
        },
    }
}

/// Decodes a wire mission item; `None` for an unknown kind.
fn decode_item(kind: u8, x: f32, y: f32, z: f32, param: f32) -> Option<MissionItem> {
    match kind {
        0 => Some(MissionItem::Takeoff {
            altitude: f64::from(z),
        }),
        1 => Some(MissionItem::Waypoint {
            position: Vec3::new(f64::from(x), f64::from(y), f64::from(z)),
            acceptance_radius: f64::from(param).max(0.1),
            yaw: 0.0,
        }),
        2 => Some(MissionItem::Loiter {
            seconds: f64::from(param),
        }),
        3 => Some(MissionItem::Land),
        _ => None,
    }
}

/// Vehicle-side mission-upload receiver state machine.
#[derive(Debug, Clone, Default)]
pub struct MissionReceiver {
    expecting: Option<(u16, Vec<MissionItem>)>,
    received: Option<Mission>,
}

impl MissionReceiver {
    /// Creates an idle receiver.
    pub fn new() -> MissionReceiver {
        MissionReceiver::default()
    }

    /// Takes a completed mission out of the receiver, if one landed.
    pub fn take_mission(&mut self) -> Option<Mission> {
        self.received.take()
    }

    /// Processes one incoming message, returning any replies.
    pub fn handle(&mut self, msg: &Message) -> Vec<Message> {
        match msg {
            Message::MissionCount { count } => {
                if *count == 0 {
                    self.expecting = None;
                    return vec![Message::MissionAck { result: 1 }];
                }
                self.expecting = Some((*count, Vec::new()));
                vec![Message::MissionRequest { seq: 0 }]
            }
            Message::MissionItem {
                seq,
                kind,
                x,
                y,
                z,
                param,
            } => {
                let Some((count, items)) = &mut self.expecting else {
                    return vec![Message::MissionAck { result: 3 }]; // unsolicited
                };
                if *seq as usize != items.len() {
                    // Out-of-order: re-request what we actually need
                    // (lossy radios re-send; the protocol is idempotent).
                    return vec![Message::MissionRequest {
                        seq: items.len() as u16,
                    }];
                }
                match decode_item(*kind, *x, *y, *z, *param) {
                    Some(item) => items.push(item),
                    None => {
                        self.expecting = None;
                        return vec![Message::MissionAck { result: 2 }]; // bad item
                    }
                }
                if items.len() < *count as usize {
                    vec![Message::MissionRequest {
                        seq: items.len() as u16,
                    }]
                } else {
                    let (_, items) = self.expecting.take().expect("in upload");
                    match Mission::new(items) {
                        Ok(mission) => {
                            self.received = Some(mission);
                            vec![Message::MissionAck { result: 0 }]
                        }
                        Err(_) => vec![Message::MissionAck { result: 2 }],
                    }
                }
            }
            _ => Vec::new(),
        }
    }
}

/// Last-seen vehicle state assembled from the telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleSnapshot {
    /// Position, if a position message has been seen.
    pub position: Option<Vec3>,
    /// Battery percentage, if seen.
    pub battery_pct: Option<u8>,
    /// Last heartbeat mode ordinal.
    pub mode: Option<u8>,
    /// Armed flag from the last heartbeat.
    pub armed: bool,
}

/// The ground station: uploads missions, issues commands, tracks state.
///
/// # Example
///
/// ```
/// use drone_firmware::gcs::{GroundStation, MissionReceiver};
/// use drone_firmware::Mission;
/// use drone_math::Vec3;
///
/// let mut gcs = GroundStation::new();
/// let mut vehicle = MissionReceiver::new();
/// // Pump the handshake until the ack arrives.
/// let mut inbox = vec![gcs.begin_mission_upload(Mission::hover_test(5.0, 2.0))];
/// for _ in 0..32 {
///     let mut next = Vec::new();
///     for m in &inbox {
///         next.extend(vehicle.handle(m));
///     }
///     inbox.clear();
///     for m in &next {
///         inbox.extend(gcs.handle(m));
///     }
///     if gcs.upload_result().is_some() { break; }
/// }
/// assert_eq!(gcs.upload_result(), Some(0));
/// assert!(vehicle.take_mission().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct GroundStation {
    uploading: Option<Vec<MissionItem>>,
    upload_result: Option<u8>,
    vehicle: VehicleSnapshot,
}

impl GroundStation {
    /// Creates a ground station with no link state.
    pub fn new() -> GroundStation {
        GroundStation::default()
    }

    /// Starts a mission upload; returns the `MISSION_COUNT` to send.
    pub fn begin_mission_upload(&mut self, mission: Mission) -> Message {
        let items = mission.items().to_vec();
        let count = items.len() as u16;
        self.uploading = Some(items);
        self.upload_result = None;
        Message::MissionCount { count }
    }

    /// The final `MISSION_ACK` result (0 = accepted), once received.
    pub fn upload_result(&self) -> Option<u8> {
        self.upload_result
    }

    /// The arm command message.
    pub fn arm_command(&self) -> Message {
        Message::CommandLong {
            command: CMD_ARM,
            params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        }
    }

    /// Latest vehicle state snapshot from telemetry.
    pub fn vehicle(&self) -> VehicleSnapshot {
        self.vehicle
    }

    /// Processes one message from the vehicle, returning replies.
    pub fn handle(&mut self, msg: &Message) -> Vec<Message> {
        match msg {
            Message::MissionRequest { seq } => {
                let Some(items) = &self.uploading else {
                    return Vec::new();
                };
                match items.get(*seq as usize) {
                    Some(item) => vec![encode_item(*seq, item)],
                    None => Vec::new(),
                }
            }
            Message::MissionAck { result } => {
                self.upload_result = Some(*result);
                self.uploading = None;
                Vec::new()
            }
            Message::Heartbeat { mode, armed } => {
                self.vehicle.mode = Some(*mode);
                self.vehicle.armed = *armed;
                Vec::new()
            }
            Message::Position { position, .. } => {
                self.vehicle.position = Some(Vec3::new(
                    f64::from(position[0]),
                    f64::from(position[1]),
                    f64::from(position[2]),
                ));
                Vec::new()
            }
            Message::BatteryStatus { remaining_pct, .. } => {
                self.vehicle.battery_pct = Some(*remaining_pct);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pump messages between GCS and receiver until quiescent.
    fn pump(gcs: &mut GroundStation, rx: &mut MissionReceiver, first: Message) -> usize {
        let mut to_vehicle = vec![first];
        let mut rounds = 0;
        while !to_vehicle.is_empty() && rounds < 64 {
            rounds += 1;
            let mut to_gcs = Vec::new();
            for m in &to_vehicle {
                to_gcs.extend(rx.handle(m));
            }
            to_vehicle.clear();
            for m in &to_gcs {
                to_vehicle.extend(gcs.handle(m));
            }
        }
        rounds
    }

    #[test]
    fn full_upload_handshake() {
        let mut gcs = GroundStation::new();
        let mut rx = MissionReceiver::new();
        let mission = Mission::survey_square(Vec3::new(0.0, 0.0, 12.0), 16.0);
        let n = mission.items().len();
        let first = gcs.begin_mission_upload(mission);
        pump(&mut gcs, &mut rx, first);
        assert_eq!(gcs.upload_result(), Some(0));
        let received = rx.take_mission().expect("mission landed");
        assert_eq!(received.items().len(), n);
        assert!(matches!(received.items()[0], MissionItem::Takeoff { .. }));
        assert!(matches!(received.items()[n - 1], MissionItem::Land));
    }

    #[test]
    fn waypoints_roundtrip_with_tolerable_precision() {
        let mut gcs = GroundStation::new();
        let mut rx = MissionReceiver::new();
        let mission = Mission::new(vec![
            MissionItem::Takeoff { altitude: 12.5 },
            MissionItem::Waypoint {
                position: Vec3::new(10.25, -3.5, 12.5),
                acceptance_radius: 1.5,
                yaw: 0.0,
            },
            MissionItem::Land,
        ])
        .unwrap();
        let first = gcs.begin_mission_upload(mission);
        pump(&mut gcs, &mut rx, first);
        let received = rx.take_mission().unwrap();
        match received.items()[1] {
            MissionItem::Waypoint {
                position,
                acceptance_radius,
                ..
            } => {
                assert!((position - Vec3::new(10.25, -3.5, 12.5)).norm() < 1e-3);
                assert!((acceptance_radius - 1.5).abs() < 0.1);
            }
            ref other => panic!("wrong item {other:?}"),
        }
    }

    #[test]
    fn empty_count_is_rejected() {
        let mut rx = MissionReceiver::new();
        let replies = rx.handle(&Message::MissionCount { count: 0 });
        assert_eq!(replies, vec![Message::MissionAck { result: 1 }]);
        assert!(rx.take_mission().is_none());
    }

    #[test]
    fn unsolicited_item_is_rejected() {
        let mut rx = MissionReceiver::new();
        let replies = rx.handle(&Message::MissionItem {
            seq: 0,
            kind: 0,
            x: 0.0,
            y: 0.0,
            z: 5.0,
            param: 0.0,
        });
        assert_eq!(replies, vec![Message::MissionAck { result: 3 }]);
    }

    #[test]
    fn duplicate_items_are_rerequested_not_fatal() {
        // A lossy radio re-delivers item 0; the receiver re-requests the
        // one it needs and the upload still completes.
        let mut gcs = GroundStation::new();
        let mut rx = MissionReceiver::new();
        let mission = Mission::hover_test(5.0, 1.0);
        let first = gcs.begin_mission_upload(mission);
        let mut replies = rx.handle(&first);
        // Deliver item 0 twice.
        let item0 = gcs.handle(&replies.pop().unwrap()).pop().unwrap();
        let _ = rx.handle(&item0);
        let re_request = rx.handle(&item0);
        assert_eq!(re_request, vec![Message::MissionRequest { seq: 1 }]);
        // Finish normally.
        let mut to_vehicle: Vec<Message> = re_request.iter().flat_map(|m| gcs.handle(m)).collect();
        for _ in 0..16 {
            let mut to_gcs = Vec::new();
            for m in &to_vehicle {
                to_gcs.extend(rx.handle(m));
            }
            to_vehicle.clear();
            for m in &to_gcs {
                to_vehicle.extend(gcs.handle(m));
            }
        }
        assert_eq!(gcs.upload_result(), Some(0));
    }

    #[test]
    fn invalid_mission_shape_is_refused() {
        // A mission that does not start with takeoff fails validation on
        // the vehicle and acks nonzero.
        let mut rx = MissionReceiver::new();
        let mut replies = rx.handle(&Message::MissionCount { count: 1 });
        assert_eq!(replies.pop(), Some(Message::MissionRequest { seq: 0 }));
        let ack = rx.handle(&Message::MissionItem {
            seq: 0,
            kind: 3, // land only
            x: 0.0,
            y: 0.0,
            z: 0.0,
            param: 0.0,
        });
        assert_eq!(ack, vec![Message::MissionAck { result: 2 }]);
        assert!(rx.take_mission().is_none());
    }

    #[test]
    fn telemetry_updates_the_snapshot() {
        let mut gcs = GroundStation::new();
        gcs.handle(&Message::Heartbeat {
            mode: 3,
            armed: true,
        });
        gcs.handle(&Message::Position {
            time_ms: 1,
            position: [1.0, 2.0, 3.0],
            velocity: [0.0; 3],
        });
        gcs.handle(&Message::BatteryStatus {
            voltage_mv: 11_100,
            remaining_pct: 72,
        });
        let v = gcs.vehicle();
        assert!(v.armed);
        assert_eq!(v.mode, Some(3));
        assert_eq!(v.battery_pct, Some(72));
        assert!((v.position.unwrap() - Vec3::new(1.0, 2.0, 3.0)).norm() < 1e-6);
    }

    #[test]
    fn arm_command_shape() {
        let gcs = GroundStation::new();
        match gcs.arm_command() {
            Message::CommandLong { command, params } => {
                assert_eq!(command, CMD_ARM);
                assert_eq!(params[0], 1.0);
            }
            other => panic!("wrong message {other}"),
        }
    }
}
