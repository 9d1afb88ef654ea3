//! Job traces: merging, summarising (Table 1), and CSV round-tripping.

use std::collections::BTreeMap;

use condor_core::job::{JobId, JobSpec, UserId};
use condor_model::station::ArchSet;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

/// Merges per-user job lists into one global trace ordered by arrival,
/// reassigning dense ids in arrival order (the form
/// [`Run::specs`](condor_core::cluster::Run::specs) requires).
pub fn merge_users(per_user: Vec<Vec<JobSpec>>) -> Vec<JobSpec> {
    let mut all: Vec<JobSpec> = per_user.into_iter().flatten().collect();
    all.sort_by_key(|j| (j.arrival, j.user, j.id));
    for (i, j) in all.iter_mut().enumerate() {
        j.id = JobId(i as u64);
    }
    all
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRow {
    /// The user.
    pub user: UserId,
    /// Jobs submitted.
    pub jobs: usize,
    /// Share of all jobs, percent.
    pub pct_jobs: f64,
    /// Mean demand per job, hours.
    pub mean_demand_hours: f64,
    /// Total demand, hours.
    pub total_demand_hours: f64,
    /// Share of all demand, percent.
    pub pct_demand: f64,
}

/// Summarises a trace into Table 1 rows (plus a synthetic "Total" row is
/// left to the renderer; this returns per-user rows sorted by user id).
pub fn table1_rows(jobs: &[JobSpec]) -> Vec<UserRow> {
    let mut per_user: BTreeMap<UserId, (usize, f64)> = BTreeMap::new();
    for j in jobs {
        let e = per_user.entry(j.user).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += j.demand.as_hours_f64();
    }
    let total_jobs: usize = jobs.len();
    let total_demand: f64 = per_user.values().map(|v| v.1).sum();
    per_user
        .into_iter()
        .map(|(user, (n, demand))| UserRow {
            user,
            jobs: n,
            pct_jobs: 100.0 * n as f64 / total_jobs.max(1) as f64,
            mean_demand_hours: demand / n.max(1) as f64,
            total_demand_hours: demand,
            pct_demand: if total_demand > 0.0 {
                100.0 * demand / total_demand
            } else {
                0.0
            },
        })
        .collect()
}

/// Serialises a trace to CSV (header + one row per job).
pub fn to_csv(jobs: &[JobSpec]) -> String {
    let mut out =
        String::from("id,user,home,arrival_ms,demand_ms,image_bytes,syscalls_per_cpu_sec,binaries\n");
    for j in jobs {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            j.id.0,
            j.user.0,
            j.home.index(),
            j.arrival.as_millis(),
            j.demand.as_millis(),
            j.image_bytes,
            j.syscalls_per_cpu_sec,
            j.binaries,
        ));
    }
    out
}

/// Errors from [`from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The header line was missing or wrong.
    BadHeader,
    /// A row had the wrong number of fields or an unparsable field.
    BadRow {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader => write!(f, "missing or malformed CSV header"),
            CsvError::BadRow { line } => write!(f, "malformed CSV row at line {line}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses a trace written by [`to_csv`].
///
/// # Errors
///
/// [`CsvError`] on malformed input.
pub fn from_csv(csv: &str) -> Result<Vec<JobSpec>, CsvError> {
    let mut lines = csv.lines();
    let header = lines.next().ok_or(CsvError::BadHeader)?;
    // The binaries column was added later; legacy 7-column traces parse as
    // all-VAX.
    let legacy = header.trim() == "id,user,home,arrival_ms,demand_ms,image_bytes,syscalls_per_cpu_sec";
    if !legacy
        && header.trim()
            != "id,user,home,arrival_ms,demand_ms,image_bytes,syscalls_per_cpu_sec,binaries"
    {
        return Err(CsvError::BadHeader);
    }
    let want_fields = if legacy { 7 } else { 8 };
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != want_fields {
            return Err(CsvError::BadRow { line: line_no });
        }
        let parse_u64 =
            |s: &str| s.trim().parse::<u64>().map_err(|_| CsvError::BadRow { line: line_no });
        let parse_f64 =
            |s: &str| s.trim().parse::<f64>().map_err(|_| CsvError::BadRow { line: line_no });
        out.push(JobSpec {
            image_bytes: parse_u64(fields[5])?,
            syscalls_per_cpu_sec: parse_f64(fields[6])?,
            binaries: if legacy {
                ArchSet::vax_only()
            } else {
                match fields[7].trim() {
                    "vax" => ArchSet::vax_only(),
                    "sun" => ArchSet::sun_only(),
                    "vax+sun" => ArchSet::both(),
                    _ => return Err(CsvError::BadRow { line: line_no }),
                }
            },
            // Dependency DAGs are an in-memory construct; CSV traces carry
            // independent whole-machine jobs.
            ..JobSpec::new(
                JobId(parse_u64(fields[0])?),
                UserId(parse_u64(fields[1])? as u32),
                NodeId::new(parse_u64(fields[2])? as u32),
                SimTime::from_millis(parse_u64(fields[3])?),
                SimDuration::from_millis(parse_u64(fields[4])?),
            )
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u64, user: u32, arrival_ms: u64, demand_h: u64) -> JobSpec {
        JobSpec {
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(id),
                UserId(user),
                NodeId::new(user),
                SimTime::from_millis(arrival_ms),
                SimDuration::from_hours(demand_h),
            )
        }
    }

    #[test]
    fn merge_orders_and_reindexes() {
        let a = vec![spec(0, 0, 5_000, 1), spec(1, 0, 1_000, 1)];
        let b = vec![spec(0, 1, 2_000, 1)];
        let merged = merge_users(vec![a, b]);
        assert_eq!(merged.len(), 3);
        let ids: Vec<u64> = merged.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let arrivals: Vec<u64> = merged.iter().map(|j| j.arrival.as_millis()).collect();
        assert_eq!(arrivals, vec![1_000, 2_000, 5_000]);
    }

    #[test]
    fn table1_percentages_sum_to_100() {
        let jobs = vec![
            spec(0, 0, 0, 6),
            spec(1, 0, 0, 6),
            spec(2, 1, 0, 2),
            spec(3, 2, 0, 1),
        ];
        let rows = table1_rows(&jobs);
        assert_eq!(rows.len(), 3);
        let pj: f64 = rows.iter().map(|r| r.pct_jobs).sum();
        let pd: f64 = rows.iter().map(|r| r.pct_demand).sum();
        assert!((pj - 100.0).abs() < 1e-9);
        assert!((pd - 100.0).abs() < 1e-9);
        assert_eq!(rows[0].jobs, 2);
        assert_eq!(rows[0].mean_demand_hours, 6.0);
        assert_eq!(rows[0].total_demand_hours, 12.0);
    }

    #[test]
    fn csv_roundtrip() {
        let jobs = vec![spec(0, 0, 1_000, 2), spec(1, 4, 2_000, 7)];
        let csv = to_csv(&jobs);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back, jobs);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert_eq!(from_csv(""), Err(CsvError::BadHeader));
        assert_eq!(from_csv("wrong,header\n"), Err(CsvError::BadHeader));
        let good_header =
            "id,user,home,arrival_ms,demand_ms,image_bytes,syscalls_per_cpu_sec,binaries";
        assert_eq!(
            from_csv(&format!("{good_header}\n1,2,3\n")),
            Err(CsvError::BadRow { line: 2 })
        );
        assert_eq!(
            from_csv(&format!("{good_header}\n1,2,3,x,5,6,7,vax\n")),
            Err(CsvError::BadRow { line: 2 })
        );
        assert_eq!(
            from_csv(&format!("{good_header}\n1,2,3,4,5,6,7,m68k\n")),
            Err(CsvError::BadRow { line: 2 })
        );
        // Blank lines are tolerated.
        let ok = from_csv(&format!("{good_header}\n\n")).unwrap();
        assert!(ok.is_empty());
    }

    #[test]
    fn legacy_seven_column_csv_parses_as_vax_only() {
        let legacy = "id,user,home,arrival_ms,demand_ms,image_bytes,syscalls_per_cpu_sec\n\
                      0,1,2,1000,2000,500000,0.5\n";
        let jobs = from_csv(legacy).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].binaries, ArchSet::vax_only());
    }

    #[test]
    fn csv_roundtrips_binaries() {
        let mut jobs = vec![spec(0, 0, 1_000, 2), spec(1, 1, 2_000, 3)];
        jobs[0].binaries = ArchSet::both();
        jobs[1].binaries = ArchSet::sun_only();
        let back = from_csv(&to_csv(&jobs)).unwrap();
        assert_eq!(back, jobs);
    }
}
