//! Order records — the synthetic analogue of the paper's Table I schema.

use crate::stores::{StoreId, StoreTypeId};
use siterec_geo::{Period, RegionId, SimMinute};

/// Index of an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderId(pub usize);

/// Index of a courier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CourierId(pub usize);

/// One delivered order.
///
/// Field-for-field this mirrors the paper's Table I: spatial information
/// (store/customer location, at region granularity for privacy parity),
/// temporal information (creation, acceptance, pickup and delivery report
/// times) and context (ids, distance, store type).
#[derive(Debug, Clone)]
pub struct Order {
    /// Stable id.
    pub id: OrderId,
    /// Serving store.
    pub store: StoreId,
    /// Store's region (source location).
    pub store_region: RegionId,
    /// Customer's region (destination, 500 m granularity).
    pub customer_region: RegionId,
    /// Store type of the purchase.
    pub ty: StoreTypeId,
    /// Assigned courier.
    pub courier: CourierId,
    /// Order creation time.
    pub created: SimMinute,
    /// Courier acceptance time.
    pub accepted: SimMinute,
    /// Pickup report time.
    pub pickup: SimMinute,
    /// Delivery report time.
    pub delivered: SimMinute,
    /// Store-to-customer distance in meters.
    pub distance_m: f64,
}

impl Order {
    /// Total delivery time in minutes (creation → delivery report), the
    /// paper's courier-capacity proxy.
    pub fn delivery_minutes(&self) -> f64 {
        self.delivered.since(self.created) as f64
    }

    /// The period the order was placed in.
    pub fn period(&self) -> Period {
        self.created.period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order() -> Order {
        Order {
            id: OrderId(0),
            store: StoreId(1),
            store_region: RegionId(2),
            customer_region: RegionId(3),
            ty: StoreTypeId(0),
            courier: CourierId(4),
            created: SimMinute::from_day_time(0, 11, 39),
            accepted: SimMinute::from_day_time(0, 11, 40),
            pickup: SimMinute::from_day_time(0, 11, 50),
            delivered: SimMinute::from_day_time(0, 12, 23),
            distance_m: 3780.0,
        }
    }

    #[test]
    fn delivery_minutes_matches_paper_example() {
        // The Table I example order: created 11:39, delivered 12:23 -> 44 min.
        assert_eq!(order().delivery_minutes(), 44.0);
    }

    #[test]
    fn period_derived_from_creation() {
        assert_eq!(order().period(), Period::NoonRush);
    }
}
