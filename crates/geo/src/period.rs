//! Time periods and 2-hour slots.
//!
//! The paper analyses the day in five periods (morning, noon rush, afternoon,
//! evening rush, night — §II-B2) and plots city-level dynamics in 2-hour
//! slots (Fig. 1–2).

/// The paper's five daily periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Period {
    /// 06:00–10:00.
    Morning,
    /// 10:00–14:00 — order-placement noon rush.
    NoonRush,
    /// 14:00–16:00.
    Afternoon,
    /// 16:00–20:00 — evening rush.
    EveningRush,
    /// 20:00–06:00.
    Night,
}

impl Period {
    /// All five periods in chronological order.
    pub const ALL: [Period; 5] = [
        Period::Morning,
        Period::NoonRush,
        Period::Afternoon,
        Period::EveningRush,
        Period::Night,
    ];

    /// Number of periods.
    pub const COUNT: usize = 5;

    /// Dense index `0..5` in [`Period::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            Period::Morning => 0,
            Period::NoonRush => 1,
            Period::Afternoon => 2,
            Period::EveningRush => 3,
            Period::Night => 4,
        }
    }

    /// Period from a dense index.
    ///
    /// # Panics
    /// Panics if `i >= 5`.
    pub fn from_index(i: usize) -> Period {
        Period::ALL[i]
    }

    /// Period containing local hour `h` (`0..24`).
    pub fn from_hour(h: u32) -> Period {
        match h % 24 {
            6..=9 => Period::Morning,
            10..=13 => Period::NoonRush,
            14..=15 => Period::Afternoon,
            16..=19 => Period::EveningRush,
            _ => Period::Night,
        }
    }

    /// Duration of the period in hours.
    pub fn hours(self) -> u32 {
        match self {
            Period::Morning => 4,
            Period::NoonRush => 4,
            Period::Afternoon => 2,
            Period::EveningRush => 4,
            Period::Night => 10,
        }
    }

    /// Short human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Period::Morning => "morning",
            Period::NoonRush => "noon-rush",
            Period::Afternoon => "afternoon",
            Period::EveningRush => "evening-rush",
            Period::Night => "night",
        }
    }

    /// True for the two rush periods where courier capacity is restrained.
    pub fn is_rush(self) -> bool {
        matches!(self, Period::NoonRush | Period::EveningRush)
    }
}

/// A 2-hour slot of the day, `0..12` (slot 0 = 00:00–02:00), used for the
/// Fig. 1/2 city-level dynamics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot2h(pub u32);

impl Slot2h {
    /// Number of slots per day.
    pub const PER_DAY: u32 = 12;

    /// Slot containing hour `h`.
    pub fn from_hour(h: u32) -> Self {
        Slot2h((h % 24) / 2)
    }

    /// Start hour of the slot.
    pub fn start_hour(self) -> u32 {
        self.0 * 2
    }

    /// Label like `"10-12"`.
    pub fn label(self) -> String {
        format!("{:02}-{:02}", self.start_hour(), self.start_hour() + 2)
    }
}

/// A timestamp in simulated time: minutes since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimMinute(pub u64);

impl SimMinute {
    /// Construct from day index and local hour/minute.
    pub fn from_day_time(day: u32, hour: u32, minute: u32) -> Self {
        SimMinute(day as u64 * 24 * 60 + hour as u64 * 60 + minute as u64)
    }

    /// Day index since simulation start.
    pub fn day(self) -> u32 {
        (self.0 / (24 * 60)) as u32
    }

    /// Local hour `0..24`.
    pub fn hour(self) -> u32 {
        ((self.0 / 60) % 24) as u32
    }

    /// Local minute `0..60`.
    pub fn minute(self) -> u32 {
        (self.0 % 60) as u32
    }

    /// Containing [`Period`].
    pub fn period(self) -> Period {
        Period::from_hour(self.hour())
    }

    /// Containing 2-hour [`Slot2h`].
    pub fn slot(self) -> Slot2h {
        Slot2h::from_hour(self.hour())
    }

    /// Minutes elapsed between two timestamps (`self` must be later).
    pub fn since(self, earlier: SimMinute) -> u64 {
        self.0 - earlier.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_cover_every_hour() {
        let mut hours = [0u32; 5];
        for h in 0..24 {
            hours[Period::from_hour(h).index()] += 1;
        }
        for p in Period::ALL {
            assert_eq!(hours[p.index()], p.hours(), "{p:?}");
        }
        assert_eq!(hours.iter().sum::<u32>(), 24);
    }

    #[test]
    fn index_roundtrip() {
        for p in Period::ALL {
            assert_eq!(Period::from_index(p.index()), p);
        }
    }

    #[test]
    fn rush_flags() {
        assert!(Period::NoonRush.is_rush());
        assert!(Period::EveningRush.is_rush());
        assert!(!Period::Morning.is_rush());
        assert!(!Period::Night.is_rush());
    }

    #[test]
    fn slots_partition_day() {
        assert_eq!(Slot2h::from_hour(0), Slot2h(0));
        assert_eq!(Slot2h::from_hour(1), Slot2h(0));
        assert_eq!(Slot2h::from_hour(23), Slot2h(11));
        assert_eq!(Slot2h(5).label(), "10-12");
    }

    #[test]
    fn sim_minute_decomposition() {
        let t = SimMinute::from_day_time(3, 11, 45);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour(), 11);
        assert_eq!(t.minute(), 45);
        assert_eq!(t.period(), Period::NoonRush);
        assert_eq!(t.slot(), Slot2h(5));
        let later = SimMinute::from_day_time(3, 12, 15);
        assert_eq!(later.since(t), 30);
    }
}
