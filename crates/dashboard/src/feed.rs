//! Push-telemetry feed: the dashboard as a subscriber.
//!
//! The demo's dashboard *monitors slice performance once deployed* — and
//! with the socket RPC plane it no longer has to poll for that: a
//! [`TelemetryFeed`] opens its own connection to a controller server,
//! subscribes to the domain's monitoring topic, and receives every report
//! the orchestrator pushes, as it is pushed ([`WireFrame::Push`] frames —
//! see `ovnes_api::rpc`). [`FeedState`] folds those pushes into a
//! latest-report-per-domain view and reports which scalars changed, so a
//! renderer can repaint deltas instead of whole panels.

use ovnes_api::rpc::{read_frame_bytes, write_frame, WireFrame};
use ovnes_api::{decode, CodecError, MonitoringReport};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A dashboard-side subscription connection to one controller server.
pub struct TelemetryFeed {
    stream: TcpStream,
    next_id: u64,
}

impl TelemetryFeed {
    /// Connect to the server at `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<TelemetryFeed> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TelemetryFeed { stream, next_id: 0 })
    }

    /// Subscribe this connection to `topic` (a `{domain}/monitoring`
    /// endpoint); blocks until the server acks. Pushes received while
    /// waiting for the ack (from earlier subscriptions) are discarded —
    /// subscribe before the run starts.
    pub fn subscribe(&mut self, topic: &str) -> io::Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.set_read_timeout(None)?;
        write_frame(
            &mut self.stream,
            &WireFrame::Subscribe {
                id,
                topic: topic.to_owned(),
            },
        )?;
        loop {
            match read_frame_wire(&mut self.stream)? {
                WireFrame::Response { response: r, .. } if r.id == id => return Ok(()),
                WireFrame::Push { .. } => continue,
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame awaiting subscribe ack: {other:?}"),
                    ))
                }
            }
        }
    }

    /// Wait up to `timeout` for one pushed report. `Ok(None)` means the
    /// window elapsed quietly. Once a frame's length prefix has arrived the
    /// rest is read with a generous fixed timeout (the server writes frames
    /// back-to-back, so the payload is already in flight).
    pub fn poll(&mut self, timeout: Duration) -> io::Result<Option<(String, Vec<u8>)>> {
        self.stream.set_read_timeout(Some(timeout))?;
        let mut len = [0u8; 4];
        match self.stream.read_exact(&mut len) {
            Ok(()) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
        let len = u32::from_be_bytes(len) as usize;
        if len > ovnes_api::MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("pushed frame length {len} exceeds MAX_FRAME_BYTES"),
            ));
        }
        self.stream
            .set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        match serde_json::from_slice::<WireFrame>(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            WireFrame::Push { topic, body } => Ok(Some((topic, body.0))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected frame on subscription stream: {other:?}"),
            )),
        }
    }
}

fn read_frame_wire(stream: &mut TcpStream) -> io::Result<WireFrame> {
    let bytes = read_frame_bytes(stream)?;
    serde_json::from_slice(&bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The dashboard's fold over pushed monitoring reports: latest report per
/// domain plus which scalars each push changed.
#[derive(Default)]
pub struct FeedState {
    latest: BTreeMap<String, MonitoringReport>,
    updates: u64,
}

impl FeedState {
    /// An empty feed state.
    pub fn new() -> FeedState {
        FeedState::default()
    }

    /// Fold in one report; returns the names of scalars whose value is new
    /// or changed relative to the domain's previous report (the delta a
    /// renderer repaints).
    pub fn apply(&mut self, report: MonitoringReport) -> Vec<String> {
        self.updates += 1;
        let previous = self.latest.get(&report.domain);
        let changed = report
            .scalars
            .iter()
            .filter(|(name, value)| {
                previous.and_then(|p| p.scalars.get(*name)) != Some(value)
            })
            .map(|(name, _)| name.clone())
            .collect();
        self.latest.insert(report.domain.clone(), report);
        changed
    }

    /// Decode a pushed body and fold it in.
    pub fn apply_push(&mut self, body: &[u8]) -> Result<Vec<String>, CodecError> {
        Ok(self.apply(decode::<MonitoringReport>(body)?))
    }

    /// The latest report from `domain`, if any arrived.
    pub fn latest(&self, domain: &str) -> Option<&MonitoringReport> {
        self.latest.get(domain)
    }

    /// Domains heard from so far, ascending.
    pub fn domains(&self) -> Vec<&str> {
        self.latest.keys().map(String::as_str).collect()
    }

    /// Total pushes folded in.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovnes_api::{register_control_endpoints, Router, RpcServer};
    use ovnes_api::{encode, SocketBus};
    use ovnes_sim::SimTime;

    fn report(domain: &str, at: u64, util: f64) -> MonitoringReport {
        let mut scalars = BTreeMap::new();
        scalars.insert("prb_utilization".to_owned(), util);
        scalars.insert("installs".to_owned(), 1.0);
        MonitoringReport {
            domain: domain.into(),
            at: SimTime::from_secs(at),
            scalars,
        }
    }

    #[test]
    fn feed_receives_pushed_reports_end_to_end() {
        let mut router = Router::new();
        register_control_endpoints(&mut router, "ran");
        let server = RpcServer::spawn(router).unwrap();

        let mut feed = TelemetryFeed::connect(server.addr()).unwrap();
        feed.subscribe("ran/monitoring").unwrap();

        // The orchestrator side posts a report; the server fans it out.
        let mut poster = SocketBus::new();
        poster.attach(&server);
        let posted = report("ran", 300, 0.63);
        poster
            .call("ran/monitoring", encode(&posted).unwrap())
            .unwrap();

        let (topic, body) = feed
            .poll(Duration::from_secs(5))
            .unwrap()
            .expect("push arrives");
        assert_eq!(topic, "ran/monitoring");
        let mut state = FeedState::new();
        let changed = state.apply_push(&body).unwrap();
        assert_eq!(changed, vec!["installs".to_owned(), "prb_utilization".to_owned()]);
        assert_eq!(state.latest("ran"), Some(&posted));
        assert_eq!(state.updates(), 1);

        // Quiet window: poll returns None without error.
        assert!(feed.poll(Duration::from_millis(50)).unwrap().is_none());
    }

    #[test]
    fn feed_state_reports_only_deltas() {
        let mut state = FeedState::new();
        let first = state.apply(report("ran", 0, 0.5));
        assert_eq!(first.len(), 2, "everything is new on the first report");
        let second = state.apply(report("ran", 60, 0.7));
        assert_eq!(second, vec!["prb_utilization".to_owned()]);
        let third = state.apply(report("ran", 120, 0.7));
        assert!(third.is_empty(), "unchanged report repaints nothing");
        assert_eq!(state.domains(), vec!["ran"]);
        assert_eq!(state.updates(), 3);
    }
}
