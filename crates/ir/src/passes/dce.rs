//! Dead code elimination.
//!
//! Erases (a) pure/allocating ops with no remaining uses and (b) blocks
//! unreachable from their region's entry. The paper's "dead region
//! elimination" (§IV-B.1) is (a) applied to `rgn.val`: an unreferenced
//! region value is a dead pure op. The compiler's pipelines have no DCE
//! slot, because every sweep of the rewrite driver behind canonicalization
//! already ends with (a) ([`erase_trivially_dead`]); this pass remains for
//! standalone use and for Figure 11's matrix.

use crate::body::Body;
use crate::module::Module;
use crate::pass::{for_each_function, Pass};
use crate::passes::simplify_cfg::{remove_unreachable_blocks, CfgBuffers};
use crate::rewrite::{erase_trivially_dead, RewriteBuffers};

/// The DCE pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct DcePass;

impl Pass for DcePass {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run_on(&self, module: &mut Module) -> bool {
        let (mut dead, mut cfg) = (RewriteBuffers::default(), CfgBuffers::default());
        for_each_function(module, |_, body| run_on_body(body, &mut dead, &mut cfg))
    }
}

/// Runs DCE on one body. Returns whether anything changed.
pub fn run_on_body(body: &mut Body, dead: &mut RewriteBuffers, cfg: &mut CfgBuffers) -> bool {
    let mut changed = false;
    loop {
        let mut round = erase_trivially_dead(body, dead);
        round |= remove_unreachable_blocks(body, cfg);
        changed |= round;
        if !round {
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::opcode::Opcode;
    use crate::types::{Signature, Type};

    #[test]
    fn dead_chain_is_fully_removed() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(2, Type::I64);
        let dead1 = b.muli(params[0], c);
        let _dead2 = b.addi(dead1, c); // uses dead1; both must go
        b.ret(params[0]);
        assert!(run_on_body(
            &mut body,
            &mut RewriteBuffers::default(),
            &mut CfgBuffers::default()
        ));
        assert_eq!(body.live_op_count(), 1);
    }

    #[test]
    fn dead_region_elimination_fig1a() {
        // Paper §IV-B.1: an unreferenced rgn.val is removed by plain DCE.
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (_dead_rgn, dead_inner) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, dead_inner);
            let v = ib.lp_int(99);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        let (live_rgn, live_inner) = b.rgn_val(&[]);
        {
            let mut ib = Builder::at_end(b.body, live_inner);
            let v = ib.lp_int(1);
            ib.lp_ret(v);
        }
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(live_rgn, vec![]);
        assert!(run_on_body(
            &mut body,
            &mut RewriteBuffers::default(),
            &mut CfgBuffers::default()
        ));
        let mut ops = Vec::new();
        body.walk_ops(&mut ops);
        let opcodes: Vec<Opcode> = ops.iter().map(|o| body.ops[o.index()].opcode).collect();
        assert_eq!(
            opcodes,
            vec![
                Opcode::RgnVal,
                Opcode::LpInt,
                Opcode::LpReturn,
                Opcode::RgnRun
            ]
        );
    }

    #[test]
    fn unreachable_block_removed() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let dead = body.new_block(crate::body::ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        let mut bd = Builder::at_end(&mut body, dead);
        let v = bd.const_i(1, Type::I64);
        bd.ret(v);
        assert!(run_on_body(
            &mut body,
            &mut RewriteBuffers::default(),
            &mut CfgBuffers::default()
        ));
        assert_eq!(body.regions[0].blocks.len(), 1);
        assert_eq!(body.live_op_count(), 2);
    }

    #[test]
    fn effects_preserved() {
        let mut m = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_dec(params[0]);
        b.lp_ret(params[0]);
        m.add_function("f", Signature::obj(1), body);
        assert!(!DcePass.run_on(&mut m));
        let body = m.func_by_name("f").unwrap().body.as_ref().unwrap();
        assert_eq!(body.live_op_count(), 3);
    }
}
