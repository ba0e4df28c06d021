//! Strongly typed physical quantities with engineering-notation display.
//!
//! The circuit solver works in raw `f64` SI units internally; these newtypes
//! appear at public API boundaries so that volts, amps, farads, watts and
//! seconds cannot be confused ([C-NEWTYPE]). Each type displays with an
//! engineering prefix, which is what the table generators print.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Formats a value in engineering notation (`1.23 nA` style).
pub fn eng(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0 {unit}");
    }
    let magnitude = value.abs();
    const PREFIXES: [(f64, &str); 9] = [
        (1e0, ""),
        (1e-3, "m"),
        (1e-6, "µ"),
        (1e-9, "n"),
        (1e-12, "p"),
        (1e-15, "f"),
        (1e-18, "a"),
        (1e-21, "z"),
        (1e-24, "y"),
    ];
    for &(scale, prefix) in &PREFIXES {
        if magnitude >= scale {
            return format!("{:.3} {}{}", value / scale, prefix, unit);
        }
    }
    format!("{value:.3e} {unit}")
}

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw SI value.
            pub const fn new(si_value: f64) -> Self {
                Self(si_value)
            }

            /// The raw SI value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Absolute value.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> Self {
                Self(v)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&eng(self.0, $unit))
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Voltage,
    "V"
);
quantity!(
    /// Electric current in amperes.
    Current,
    "A"
);
quantity!(
    /// Capacitance in farads.
    Capacitance,
    "F"
);
quantity!(
    /// Power in watts.
    Power,
    "W"
);
quantity!(
    /// Energy in joules.
    Energy,
    "J"
);
quantity!(
    /// Time in seconds.
    Time,
    "s"
);
quantity!(
    /// Frequency in hertz.
    Frequency,
    "Hz"
);
quantity!(
    /// Energy–delay product in joule-seconds.
    EnergyDelay,
    "J·s"
);

impl Mul<Voltage> for Current {
    type Output = Power;
    fn mul(self, rhs: Voltage) -> Power {
        Power::new(self.value() * rhs.value())
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    fn mul(self, rhs: Current) -> Power {
        rhs * self
    }
}

impl Mul<Time> for Power {
    type Output = Energy;
    fn mul(self, rhs: Time) -> Energy {
        Energy::new(self.value() * rhs.value())
    }
}

impl Mul<Time> for Energy {
    type Output = EnergyDelay;
    fn mul(self, rhs: Time) -> EnergyDelay {
        EnergyDelay::new(self.value() * rhs.value())
    }
}

impl Div<Frequency> for Power {
    type Output = Energy;
    fn div(self, rhs: Frequency) -> Energy {
        Energy::new(self.value() / rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formatting_picks_prefixes() {
        assert_eq!(eng(1.5e-9, "A"), "1.500 nA");
        assert_eq!(eng(3.6e-17, "F"), "36.000 aF");
        assert_eq!(eng(0.9, "V"), "900.000 mV");
        assert_eq!(eng(0.0, "W"), "0 W");
        assert_eq!(eng(-2.5e-6, "W"), "-2.500 µW");
    }

    #[test]
    fn power_is_current_times_voltage() {
        let p = Current::new(2e-9) * Voltage::new(0.9);
        assert!((p.value() - 1.8e-9).abs() < 1e-18);
        let p2 = Voltage::new(0.9) * Current::new(2e-9);
        assert_eq!(p, p2);
    }

    #[test]
    fn energy_chain() {
        let p = Power::new(20e-6);
        let f = Frequency::new(1e9);
        let e = p / f; // energy per cycle
        assert!((e.value() - 20e-15).abs() < 1e-24);
        let edp = e * Time::new(320e-12);
        assert!((edp.value() - 6.4e-24).abs() < 1e-30);
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Power = [1e-6, 2e-6, 3e-6].into_iter().map(Power::new).sum();
        assert!((total.value() - 6e-6).abs() < 1e-15);
        let ratio = Power::new(4.0) / Power::new(2.0);
        assert_eq!(ratio, 2.0);
        assert_eq!(-Voltage::new(1.0), Voltage::new(-1.0));
        assert_eq!(Voltage::new(2.0) - Voltage::new(0.5), Voltage::new(1.5));
    }
}
