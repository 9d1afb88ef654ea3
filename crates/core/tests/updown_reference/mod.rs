//! Up-Down the straightforward way — the oracle `policy_props` holds
//! [`condor_core::updown::UpDown`] against.
//!
//! Same algorithm, none of the machinery: a dense `f64` index with an
//! entry for every station, machines-per-home and grants-per-home counted
//! into fleet-sized arrays from the views on every call, *every*
//! requester and *every* host fully sorted, every station's index
//! recomputed every poll, nothing kept between polls but the index. What
//! it shares with the real policy is the arithmetic, one station at a
//! time: `index += up × (machines held + machines granted)`, `index -=
//! down` while jobs wait ungranted, drift toward zero otherwise.

use condor_core::policy::{Order, StationView};
use condor_core::updown::UpDownConfig;
use condor_net::NodeId;

pub struct ReferenceUpDown {
    config: UpDownConfig,
    index: Vec<f64>,
}

impl ReferenceUpDown {
    pub fn new(config: UpDownConfig, stations: usize) -> Self {
        ReferenceUpDown { config, index: vec![0.0; stations] }
    }

    pub fn index_of(&self, node: NodeId) -> f64 {
        self.index[node.as_usize()]
    }

    /// Every station's index added in id order, zeros included.
    pub fn index_sum(&self) -> f64 {
        self.index.iter().sum()
    }

    /// One poll over `views`; `free` is the whole hostable set in the
    /// caller's preference order.
    pub fn decide(
        &mut self,
        views: &[StationView],
        free: &[NodeId],
        max_placements: usize,
    ) -> Vec<Order> {
        let config = self.config;
        let mut used = vec![0usize; views.len()];
        for home in views.iter().filter_map(|v| v.hosting_for) {
            used[home.as_usize()] += 1;
        }

        // Lowest index first, ties to the lower id.
        let mut requesters: Vec<&StationView> =
            views.iter().filter(|v| v.waiting_jobs > 0).collect();
        requesters.sort_by(|a, b| {
            let (ia, ib) = (self.index_of(a.node), self.index_of(b.node));
            ia.partial_cmp(&ib).expect("no NaN index").then(a.node.cmp(&b.node))
        });

        // One machine per unmet requester per round, in priority order.
        let mut granted = vec![0usize; views.len()];
        let mut orders = Vec::new();
        let mut machines = free.iter();
        'rounds: loop {
            let mut progress = false;
            for r in &requesters {
                if orders.len() >= max_placements {
                    break 'rounds;
                }
                if granted[r.node.as_usize()] < r.waiting_jobs {
                    let Some(&target) = machines.next() else { break 'rounds };
                    orders.push(Order::Assign { home: r.node, target });
                    granted[r.node.as_usize()] += 1;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }

        // Fleet exhausted: unmet requesters, best first, each take the next
        // victim in (highest home index, lowest machine id) order that is
        // not their own, exceeds the margin and was not just assigned. A
        // victim passed over stays passed over; the first requester left
        // without one ends the pass.
        if orders.len() == free.len() {
            let mut victims: Vec<(f64, NodeId, NodeId)> = views
                .iter()
                .filter_map(|v| v.hosting_for.map(|home| (self.index_of(home), home, v.node)))
                .collect();
            victims.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN index").then(a.2.cmp(&b.2)));
            let mut victims = victims.into_iter();
            let mut preemptions = 0;
            for r in &requesters {
                if preemptions >= config.max_preemptions_per_poll {
                    break;
                }
                if granted[r.node.as_usize()] >= r.waiting_jobs {
                    continue;
                }
                let floor = self.index_of(r.node) + config.preemption_margin;
                let victim = victims.by_ref().find(|&(index, home, machine)| {
                    home != r.node
                        && index > floor
                        && !orders
                            .iter()
                            .any(|o| matches!(o, Order::Assign { target, .. } if *target == machine))
                });
                match victim {
                    Some((_, _, target)) => {
                        orders.push(Order::Preempt { target });
                        preemptions += 1;
                    }
                    None => break,
                }
            }
        }

        for (s, view) in views.iter().enumerate() {
            let used = used[s] + granted[s];
            let unmet = view.waiting_jobs > granted[s];
            let mut value = self.index[s];
            if used > 0 {
                value += config.up_per_machine * used as f64;
            }
            if unmet {
                value -= config.down_when_denied;
            }
            if used == 0 && !unmet {
                value = if value > 0.0 {
                    (value - config.idle_drift).max(0.0)
                } else {
                    (value + config.idle_drift).min(0.0)
                };
            }
            self.index[s] = value;
        }
        orders
    }
}
