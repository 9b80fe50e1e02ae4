//! `slurm.conf`-style cluster configuration parsing.
//!
//! A minimal but faithful subset: `NodeName` lines define the machine
//! (with `n[0-127]` bracket ranges), `PartitionName` lines define
//! partitions with time limits and the `OverSubscribe` flag that gates
//! node sharing — the knob the paper's deployment story turns.
//!
//! ```text
//! NodeName=n[0-127] Sockets=2 CoresPerSocket=16 ThreadsPerCore=2 RealMemory=131072
//! PartitionName=batch Nodes=ALL Default=YES MaxTime=12:00:00 OverSubscribe=YES
//! PartitionName=debug Nodes=ALL MaxTime=30:00 OverSubscribe=NO
//! ```

use crate::timefmt::parse_walltime;
use nodeshare_cluster::{ClusterSpec, NodeSpec};
use nodeshare_workload::Seconds;
use serde::{Deserialize, Serialize};

/// A scheduling partition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Partition name.
    pub name: String,
    /// Maximum walltime for jobs in this partition, if limited.
    pub max_time: Option<Seconds>,
    /// Whether jobs here may opt into node sharing (`OverSubscribe=YES`).
    pub oversubscribe: bool,
    /// Whether this is the default partition.
    pub default: bool,
}

/// Parsed cluster configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlurmConf {
    /// The machine.
    pub cluster: ClusterSpec,
    /// Partitions in declaration order.
    pub partitions: Vec<Partition>,
}

/// Error from configuration parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfError {
    /// A line had an unparseable `Key=Value` token.
    BadToken {
        /// 1-based line number.
        line: usize,
        /// The token.
        token: String,
    },
    /// No `NodeName` line was present.
    MissingNodes,
    /// Value failed to parse.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// Key whose value is bad.
        key: String,
        /// The value.
        value: String,
    },
}

impl std::fmt::Display for ConfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfError::BadToken { line, token } => write!(f, "line {line}: bad token {token:?}"),
            ConfError::MissingNodes => write!(f, "no NodeName line"),
            ConfError::BadValue { line, key, value } => {
                write!(f, "line {line}: bad value {value:?} for {key}")
            }
        }
    }
}

impl std::error::Error for ConfError {}

/// Extracts the node count from a `NodeName` value: `n[0-127]` → 128,
/// a plain name → 1. `None` for a malformed range: brackets out of
/// order, bounds descending, or a count that overflows `u32`.
fn node_count_of(name: &str) -> Option<u32> {
    if let (Some(open), Some(close)) = (name.find('['), name.find(']')) {
        let range = name.get(open + 1..close)?;
        let (lo, hi) = range.split_once('-')?;
        let lo: u32 = lo.parse().ok()?;
        let hi: u32 = hi.parse().ok()?;
        hi.checked_sub(lo)?.checked_add(1)
    } else {
        Some(1)
    }
}

impl SlurmConf {
    /// The canonical evaluation configuration: 128 Trinity-like nodes,
    /// one oversubscribable `batch` partition.
    pub fn evaluation() -> Self {
        SlurmConf {
            cluster: ClusterSpec::evaluation(),
            partitions: vec![Partition {
                name: "batch".into(),
                max_time: Some(43_200.0),
                oversubscribe: true,
                default: true,
            }],
        }
    }

    /// Parses configuration text.
    pub fn parse(text: &str) -> Result<SlurmConf, ConfError> {
        let mut cluster: Option<ClusterSpec> = None;
        let mut partitions = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut pairs = Vec::new();
            for token in line.split_whitespace() {
                let (k, v) = token.split_once('=').ok_or(ConfError::BadToken {
                    line: lineno + 1,
                    token: token.to_string(),
                })?;
                pairs.push((k.to_string(), v.to_string()));
            }
            let Some((first_key, first_val)) = pairs.first().cloned() else {
                continue;
            };
            let get = |key: &str| -> Option<String> {
                pairs
                    .iter()
                    .find(|(k, _)| k.eq_ignore_ascii_case(key))
                    .map(|(_, v)| v.clone())
            };
            let bad = |key: &str, value: &str| ConfError::BadValue {
                line: lineno + 1,
                key: key.to_string(),
                value: value.to_string(),
            };
            if first_key.eq_ignore_ascii_case("NodeName") {
                let count = node_count_of(&first_val).ok_or_else(|| bad("NodeName", &first_val))?;
                let parse_u = |key: &str, default: u64| -> Result<u64, ConfError> {
                    match get(key) {
                        Some(v) => v.parse().map_err(|_| bad(key, &v)),
                        None => Ok(default),
                    }
                };
                let sockets = parse_u("Sockets", 2)?;
                let cores = parse_u("CoresPerSocket", 16)?;
                let smt = parse_u("ThreadsPerCore", 2)?;
                let node = NodeSpec {
                    sockets: u8::try_from(sockets)
                        .map_err(|_| bad("Sockets", &sockets.to_string()))?,
                    cores_per_socket: u16::try_from(cores)
                        .map_err(|_| bad("CoresPerSocket", &cores.to_string()))?,
                    smt: u8::try_from(smt).map_err(|_| bad("ThreadsPerCore", &smt.to_string()))?,
                    mem_mib: parse_u("RealMemory", 128 * 1024)?,
                };
                let spec = ClusterSpec::new(count, node);
                spec.validate().map_err(|_| bad("NodeName", &first_val))?;
                cluster = Some(spec);
            } else if first_key.eq_ignore_ascii_case("PartitionName") {
                let max_time = match get("MaxTime") {
                    Some(v) if v.eq_ignore_ascii_case("UNLIMITED") => None,
                    Some(v) => Some(parse_walltime(&v).map_err(|_| bad("MaxTime", &v))?),
                    None => None,
                };
                let yes = |v: &Option<String>| {
                    v.as_deref()
                        .map(|v| v.eq_ignore_ascii_case("YES"))
                        .unwrap_or(false)
                };
                partitions.push(Partition {
                    name: first_val,
                    max_time,
                    oversubscribe: yes(&get("OverSubscribe")),
                    default: yes(&get("Default")),
                });
            }
            // Other directives (SchedulerType, etc.) are accepted and
            // ignored, as real SLURM tolerates unknown plugins elsewhere.
        }
        Ok(SlurmConf {
            cluster: cluster.ok_or(ConfError::MissingNodes)?,
            partitions,
        })
    }

    /// The default partition (explicitly flagged, else the first).
    pub fn default_partition(&self) -> Option<&Partition> {
        self.partitions
            .iter()
            .find(|p| p.default)
            .or_else(|| self.partitions.first())
    }

    /// Partition by name.
    pub fn partition(&self, name: &str) -> Option<&Partition> {
        self.partitions.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONF: &str = "\
# evaluation machine
NodeName=n[0-127] Sockets=2 CoresPerSocket=16 ThreadsPerCore=2 RealMemory=131072
PartitionName=batch Nodes=ALL Default=YES MaxTime=12:00:00 OverSubscribe=YES
PartitionName=debug Nodes=ALL MaxTime=30:00 OverSubscribe=NO
";

    #[test]
    fn parses_evaluation_conf() {
        let conf = SlurmConf::parse(CONF).unwrap();
        assert_eq!(conf.cluster.node_count, 128);
        assert_eq!(conf.cluster.node.cores(), 32);
        assert_eq!(conf.cluster.node.smt, 2);
        assert_eq!(conf.cluster.node.mem_mib, 131_072);
        assert_eq!(conf.partitions.len(), 2);
        let batch = conf.partition("batch").unwrap();
        assert!(batch.oversubscribe && batch.default);
        assert_eq!(batch.max_time, Some(43_200.0));
        let debug = conf.partition("debug").unwrap();
        assert!(!debug.oversubscribe);
        assert_eq!(debug.max_time, Some(1_800.0));
        assert_eq!(conf.default_partition().unwrap().name, "batch");
    }

    #[test]
    fn single_node_and_unlimited() {
        let conf = SlurmConf::parse(
            "NodeName=login Sockets=1 CoresPerSocket=8 ThreadsPerCore=1 RealMemory=65536\n\
             PartitionName=all MaxTime=UNLIMITED\n",
        )
        .unwrap();
        assert_eq!(conf.cluster.node_count, 1);
        assert_eq!(conf.cluster.node.smt, 1);
        assert_eq!(conf.partitions[0].max_time, None);
        // No explicit default: first partition wins.
        assert_eq!(conf.default_partition().unwrap().name, "all");
    }

    #[test]
    fn errors() {
        assert_eq!(SlurmConf::parse("").unwrap_err(), ConfError::MissingNodes);
        assert!(matches!(
            SlurmConf::parse("NodeName=n[5-2]\n"),
            Err(ConfError::BadValue { .. })
        ));
        assert!(matches!(
            SlurmConf::parse("NodeName n1\n"),
            Err(ConfError::BadToken { .. })
        ));
        assert!(matches!(
            SlurmConf::parse("NodeName=n1 Sockets=two\n"),
            Err(ConfError::BadValue { .. })
        ));
    }

    #[test]
    fn evaluation_matches_paper_shape() {
        let conf = SlurmConf::evaluation();
        assert_eq!(conf.cluster, ClusterSpec::evaluation());
        assert!(conf.default_partition().unwrap().oversubscribe);
    }

    #[test]
    fn node_ranges() {
        assert_eq!(node_count_of("n[0-127]"), Some(128));
        assert_eq!(node_count_of("n[3-3]"), Some(1));
        assert_eq!(node_count_of("login"), Some(1));
        assert_eq!(node_count_of("n[5-2]"), None);
        assert_eq!(node_count_of("n[x-2]"), None);
    }
}
