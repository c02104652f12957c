//! `Outline` is named by no other file: the fixpoint keeps it because the
//! signature of `square`, which `perf/src` names, mentions it.

pub struct Outline {
    pub sides: u32,
}

pub fn square() -> Outline {
    Outline { sides: 4 }
}

pub fn corner() -> crate::Corner {
    crate::Corner
}

/// Named only by `tests/`'s `use kern::Area;`, which imports the trait for
/// its method: an import is a use.
pub trait Area {
    fn area(&self) -> u32;
}

impl Area for Outline {
    fn area(&self) -> u32 {
        self.sides
    }
}
