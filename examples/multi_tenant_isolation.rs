//! Multi-tenant isolation: what the STU's access control actually
//! stops, and what E-FAM leaves open.
//!
//! Two tenants share a FAM pool. Tenant B (compromised OS) forges
//! pre-translated requests — DeACT `V = 1` packets aimed straight at
//! tenant A's FAM pages. The STU vets every FAM address against the
//! access-control metadata the broker wrote, so the forgery is denied;
//! a third tenant is then granted *read-only* rights on a shared
//! segment and the bitmap enforces exactly that (§III-A).
//!
//! ```sh
//! cargo run --release -p fam-examples --bin multi_tenant_isolation
//! ```

use fam_broker::{AccessKind, BrokerConfig, MemoryBroker};
use fam_fabric::packet::{Packet, PacketKind};
use fam_stu::{Stu, StuConfig, StuOrganization};
use fam_vm::PtFlags;

fn main() {
    let mut broker = MemoryBroker::new(BrokerConfig::default());
    let tenant_a = broker.register_node().expect("register tenant A");
    let tenant_b = broker.register_node().expect("register tenant B");
    let tenant_c = broker.register_node().expect("register tenant C");

    // Tenant A faults in some private pages.
    let secret_page = broker.demand_map(tenant_a, 0x100).expect("map A's page");
    println!("tenant A owns FAM page {secret_page:#x} (private, RW)");

    // Tenant B's compromised kernel forges a pre-translated request:
    // in DeACT terms, a V=1 packet carrying A's FAM address.
    let forged = Packet {
        kind: PacketKind::Read,
        source: tenant_b,
        addr: secret_page * 4096,
        verified: true,
        tag: 7,
    };
    let wire = forged.encode();
    let at_stu = Packet::decode(&wire).expect("well-formed packet");
    println!(
        "tenant B forges {:?} with V={} for A's page...",
        at_stu.kind, at_stu.verified as u8
    );

    // The STU does not trust V=1 to mean "allowed" — it means "already
    // translated". Access control is still checked off-node.
    let mut stu_b = Stu::new(StuConfig {
        organization: StuOrganization::DeactN,
        ..StuConfig::default()
    });
    let verdict = stu_b.verify(&broker, at_stu.source, at_stu.addr / 4096, AccessKind::Read);
    println!(
        "  STU verdict: {} (ACM fetched from {:#x})",
        if verdict.allowed {
            "ALLOWED (!)"
        } else {
            "DENIED"
        },
        verdict.acm_fetch_addr.unwrap_or(0),
    );
    assert!(
        !verdict.allowed,
        "decoupling must not weaken access control"
    );

    // Under E-FAM there is no STU: the same forged address would go
    // straight to memory. That asymmetry is Table I's security column.
    println!("  (under E-FAM no component would have vetted that request)\n");

    // Now legitimate sharing: A and C share a segment, A read-write,
    // C read-only — mixed permissions via the 1 GB region bitmap.
    let segment = broker
        .share_segment(
            8,
            &[
                (tenant_a, PtFlags::rw(), 0x2000),
                (tenant_c, PtFlags::ro(), 0x3000),
            ],
        )
        .expect("shared segment");
    println!(
        "shared segment: {} pages in 1 GB region {} (A: RW, C: RO)",
        segment.pages, segment.region
    );

    let mut stu_c = Stu::new(StuConfig {
        organization: StuOrganization::DeactN,
        ..StuConfig::default()
    });
    let page = segment.first_page;
    let checks = [
        ("A writes", tenant_a, AccessKind::Write, true),
        ("C reads", tenant_c, AccessKind::Read, true),
        ("C writes", tenant_c, AccessKind::Write, false),
        ("B reads", tenant_b, AccessKind::Read, false),
    ];
    for (what, who, kind, expected) in checks {
        let stu = if who == tenant_a {
            &mut stu_b
        } else {
            &mut stu_c
        };
        let v = stu.verify(&broker, who, page, kind);
        println!(
            "  {what:9} -> {}",
            if v.allowed { "allowed" } else { "denied" }
        );
        assert_eq!(v.allowed, expected, "{what}");
    }
    println!("\nisolation holds: ownership, sharing and permission bits all enforced off-node");
}
