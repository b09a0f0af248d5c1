//! Per-lane operation traces, recorded into one reusable arena.
//!
//! While a thread's body runs, every simulated instruction appends an
//! [`Op`] to its lane's trace. A device keeps the traces of the running
//! wave in one [`TraceArena`]: a flat op buffer plus a span per lane,
//! cleared (not freed) between warps and waves, so recording allocates
//! nothing per lane. A warp's traces live only until the warp is
//! replayed. Warps stream — each is replayed as soon as its lanes ran
//! and its ops discarded — until some lane of the wave records a
//! gang-collective request; from that warp on, and for every lane of a
//! schedule-fuzzed wave, the traces are held until the wave-end flush
//! has laid out their epilogues (see `Device::execute`). A wave without
//! collectives therefore holds one warp's ops, whatever its width.

use crate::WARP_SIZE;

/// One recorded lane operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Global memory load of a 4-byte word at a byte address.
    Load(u64),
    /// Volatile/L2-coherent load ([`crate::Lane::ld_volatile`]). Costs
    /// and coalesces exactly like [`Op::Load`] — the distinction exists
    /// so the sanitizer can tell a snapshot-semantics read from an
    /// intentionally racy live read.
    LoadVolatile(u64),
    /// Global memory store.
    Store(u64),
    /// Atomic read-modify-write (min/add/cas/exch all cost alike).
    Atomic(u64),
    /// `n` arithmetic/control instructions (collapsed).
    Alu(u32),
    /// Explicit warp reconvergence point (`__syncwarp`). Free at
    /// replay time — the hardware's convergence barrier retires no
    /// instruction the surrounding code did not already pay for — but
    /// it re-aligns the step counter across the warp's lanes: replay
    /// groups ops *within* a segment between two convergence points,
    /// so ops at the same post-sync program point coalesce into one
    /// warp instruction even when the lanes diverged earlier. The
    /// warp-synchronous multisplit kernels emit one per aggregation
    /// point; the scalar baseline kernels never do.
    Conv,
}

impl Op {
    /// Coarse kind used for divergence grouping during replay.
    #[inline]
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Load(_) | Op::LoadVolatile(_) => OpKind::Load,
            Op::Store(_) => OpKind::Store,
            Op::Atomic(_) => OpKind::Atomic,
            Op::Alu(_) => OpKind::Alu,
            Op::Conv => OpKind::Conv,
        }
    }

    /// Byte address for memory ops.
    #[inline]
    pub fn addr(&self) -> Option<u64> {
        match *self {
            Op::Load(a) | Op::LoadVolatile(a) | Op::Store(a) | Op::Atomic(a) => Some(a),
            Op::Alu(_) | Op::Conv => None,
        }
    }
}

/// Operation kind (divergence grouping key).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Global load (plain or volatile).
    Load,
    /// Global store.
    Store,
    /// Atomic read-modify-write.
    Atomic,
    /// Arithmetic/control instructions.
    Alu,
    /// Warp reconvergence point (replay segment boundary, zero cost).
    Conv,
}

/// Where one lane's trace sits in the arena: `ops[start..end]`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// True when the lane recorded nothing.
    #[inline]
    pub(crate) fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// The traces of the running wave's held lanes: one op buffer, each
/// lane's ops contiguous in it, plus the spans that find them. Its
/// capacity is kept across waves, so after the widest held wave the
/// unarmed path records without allocating.
#[derive(Default)]
pub(crate) struct TraceArena {
    ops: Vec<Op>,
    /// Start of the lane being recorded: [`TraceArena::push`] never
    /// merges an ALU op into the previous lane's trace.
    open: usize,
    /// Body trace of each held lane, from the first held lane on.
    pub(crate) body: Vec<Span>,
    /// Flush epilogue of each held lane (an empty span when the lane's
    /// warp recorded no gang collective).
    pub(crate) epilogue: Vec<Span>,
    /// Most ops held at once (tests check that streaming bounds it).
    #[cfg(test)]
    pub(crate) high_water: usize,
}

impl TraceArena {
    /// Forget every trace, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.ops.clear();
        self.open = 0;
        self.body.clear();
        self.epilogue.clear();
    }

    /// Start recording a new lane's trace.
    #[inline]
    pub(crate) fn open_lane(&mut self) {
        self.open = self.ops.len();
    }

    /// Append one op to the lane being recorded. Consecutive ALU ops
    /// of one lane collapse into a single [`Op::Alu`] to keep traces
    /// small: graph kernels interleave long arithmetic runs with
    /// memory ops.
    #[inline]
    pub(crate) fn push(&mut self, op: Op) {
        if self.ops.len() > self.open {
            if let (Some(Op::Alu(last)), Op::Alu(m)) = (self.ops.last_mut(), op) {
                *last += m;
                return;
            }
        }
        self.ops.push(op);
    }

    /// Finish the lane being recorded and return its span.
    #[inline]
    pub(crate) fn close_lane(&mut self) -> Span {
        #[cfg(test)]
        {
            self.high_water = self.high_water.max(self.ops.len());
        }
        let at = |i: usize| u32::try_from(i).expect("a wave's held traces exceed 2^32 ops");
        Span { start: at(self.open), end: at(self.ops.len()) }
    }

    /// The ops one lane recorded.
    #[inline]
    pub(crate) fn lane(&self, span: Span) -> &[Op] {
        &self.ops[span.start as usize..span.end as usize]
    }

    /// The ops of each lane in `spans`, for one warp's replay.
    pub(crate) fn warp<'a>(&'a self, spans: &[Span], lanes: &mut [&'a [Op]; WARP_SIZE as usize]) {
        for (slot, &span) in lanes.iter_mut().zip(spans) {
            *slot = self.lane(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_collapse() {
        let mut t = TraceArena::default();
        t.open_lane();
        t.push(Op::Alu(2));
        t.push(Op::Alu(3));
        t.push(Op::Load(64));
        t.push(Op::Alu(1));
        let first = t.close_lane();
        // A new lane's ALU run never merges into the previous lane's.
        t.open_lane();
        t.push(Op::Alu(4));
        let second = t.close_lane();
        let mut lanes: [&[Op]; WARP_SIZE as usize] = [&[]; WARP_SIZE as usize];
        t.warp(&[first, second], &mut lanes);
        assert_eq!(lanes[0], &[Op::Alu(5), Op::Load(64), Op::Alu(1)]);
        assert_eq!(lanes[1], &[Op::Alu(4)]);
    }

    #[test]
    fn kinds_and_addrs() {
        assert_eq!(Op::Load(8).kind(), OpKind::Load);
        assert_eq!(Op::LoadVolatile(8).kind(), OpKind::Load, "replay must group them together");
        assert_eq!(Op::LoadVolatile(12).addr(), Some(12));
        assert_eq!(Op::Store(8).addr(), Some(8));
        assert_eq!(Op::Alu(1).addr(), None);
        assert_eq!(Op::Atomic(4).kind(), OpKind::Atomic);
    }
}
