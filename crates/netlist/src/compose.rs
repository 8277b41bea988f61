//! Hierarchical composition: instantiating one circuit inside another.
//!
//! The SMART database is built from macros, but real designs are *blocks*
//! of macros plus glue (paper §6.4). `Circuit::instantiate` copies a macro
//! into a parent circuit under an instance prefix — nets, components and
//! labels all namespaced — and splices the macro's ports onto parent nets,
//! so a composed block is an ordinary [`crate::Circuit`] that every
//! analysis (STA, power, sizing, simulation) handles with no special
//! cases.

use std::collections::HashMap;

use crate::{Circuit, LabelId, NetId, NetlistError, PortDir};

impl Circuit {
    /// Copies `child` into `self` under `prefix`.
    ///
    /// * Child nets become `"{prefix}/{net}"`; a child net exposed as a
    ///   port whose name appears in `port_map` is *merged* onto the given
    ///   parent net instead of being copied.
    /// * Child components become `"{prefix}/{path}"`.
    /// * Child labels become `"{prefix}/{label}"` — each instance gets its
    ///   own size variables, like a hand layout that re-sizes per
    ///   instance. Use [`Circuit::instantiate_shared`] to size all
    ///   instances of a macro identically instead.
    ///
    /// Returns the mapping from child net ids to parent net ids.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownNet`] if `port_map` references a parent
    ///   net that does not exist.
    /// * [`NetlistError::DuplicateName`] if the prefix collides with
    ///   existing nets/instances.
    pub fn instantiate(
        &mut self,
        prefix: &str,
        child: &Circuit,
        port_map: &HashMap<String, NetId>,
    ) -> Result<Vec<NetId>, NetlistError> {
        self.instantiate_with_labels(prefix, child, port_map, false)
    }

    /// Like [`Circuit::instantiate`], but child labels are *shared across
    /// instances*: a child label `N2` maps to the parent label
    /// `{child_name}::N2` regardless of instance prefix, so every instance
    /// of the macro is sized identically — the block-level regularity of
    /// the paper's §5.2 (a hand layout reuses one sized cell), which also
    /// shrinks the block's GP.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::instantiate`].
    pub fn instantiate_shared(
        &mut self,
        prefix: &str,
        child: &Circuit,
        port_map: &HashMap<String, NetId>,
    ) -> Result<Vec<NetId>, NetlistError> {
        self.instantiate_with_labels(prefix, child, port_map, true)
    }

    fn instantiate_with_labels(
        &mut self,
        prefix: &str,
        child: &Circuit,
        port_map: &HashMap<String, NetId>,
        shared_labels: bool,
    ) -> Result<Vec<NetId>, NetlistError> {
        // Validate the port map first.
        for (&net, port) in port_map.values().zip(port_map.keys()) {
            if net.index() >= self.net_count() {
                return Err(NetlistError::UnknownNet {
                    path: format!("{prefix} port {port}"),
                    index: net.index(),
                });
            }
        }
        // Port-name → child net.
        let mut port_of_net: HashMap<NetId, &str> = HashMap::new();
        for p in child.ports() {
            port_of_net.entry(p.net).or_insert(p.name.as_str());
        }

        // Map child nets.
        let mut net_map: Vec<NetId> = Vec::with_capacity(child.net_count());
        for (id, net) in child.nets() {
            let mapped = if let Some(port) = port_of_net.get(&id) {
                if let Some(&parent) = port_map.get(*port) {
                    // Merged onto a parent net; carry the wire cap over.
                    if net.wire_cap > 0.0 {
                        let cur = self.net(parent).wire_cap;
                        self.set_wire_cap(parent, cur + net.wire_cap);
                    }
                    net_map.push(parent);
                    continue;
                } else {
                    self.add_net_kind(format!("{prefix}/{}", net.name), net.kind)?
                }
            } else {
                self.add_net_kind(format!("{prefix}/{}", net.name), net.kind)?
            };
            if net.wire_cap > 0.0 {
                self.set_wire_cap(mapped, net.wire_cap);
            }
            net_map.push(mapped);
        }

        // Map child labels: per-instance by default, per-macro when shared.
        let label_map: Vec<LabelId> = child
            .labels()
            .iter()
            .map(|(_, name)| {
                if shared_labels {
                    self.label(&format!("{}::{name}", child.name()))
                } else {
                    self.label(&format!("{prefix}/{name}"))
                }
            })
            .collect();

        // Copy components.
        for (_, comp) in child.components() {
            let conns: Vec<NetId> = comp.conns.iter().map(|n| net_map[n.index()]).collect();
            let bindings: Vec<_> = comp
                .label_bindings()
                .iter()
                .map(|&(role, l)| (role, label_map[l.index()]))
                .collect();
            self.add(
                format!("{prefix}/{}", comp.path),
                comp.kind.clone(),
                &conns,
                &bindings,
            )?;
        }
        Ok(net_map)
    }

    /// Convenience for composition: creates a parent net for every child
    /// port not already in `port_map`, exposing child inputs as
    /// `"{prefix}_{port}"` parent inputs (outputs stay internal unless
    /// explicitly mapped). Returns the completed port map.
    ///
    /// # Errors
    ///
    /// Propagates net-creation errors.
    pub fn auto_port_map(
        &mut self,
        prefix: &str,
        child: &Circuit,
        mut port_map: HashMap<String, NetId>,
    ) -> Result<HashMap<String, NetId>, NetlistError> {
        for p in child.ports() {
            if port_map.contains_key(&p.name) {
                continue;
            }
            let name = format!("{prefix}_{}", p.name);
            let net = self.add_net(&name)?;
            if p.dir == PortDir::Input {
                self.expose_input(&name, net);
            } else {
                self.expose_output(&name, net);
            }
            port_map.insert(p.name.clone(), net);
        }
        Ok(port_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComponentKind, DeviceRole, Skew};

    fn inverter_macro() -> Circuit {
        let mut c = Circuit::new("inv_macro");
        let a = c.add_net("a").unwrap();
        let y = c.add_net("y").unwrap();
        let p = c.label("P1");
        let n = c.label("N1");
        c.add(
            "u",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
        )
        .unwrap();
        c.expose_input("a", a);
        c.expose_output("y", y);
        c
    }

    #[test]
    fn two_instances_chain_through_a_shared_net() {
        let child = inverter_macro();
        let mut parent = Circuit::new("block");
        let pin = parent.add_net("in").unwrap();
        let mid = parent.add_net("mid").unwrap();
        let pout = parent.add_net("out").unwrap();
        parent.expose_input("in", pin);
        parent.expose_output("out", pout);

        let m1: HashMap<String, NetId> =
            [("a".to_string(), pin), ("y".to_string(), mid)].into();
        parent.instantiate("i0", &child, &m1).unwrap();
        let m2: HashMap<String, NetId> =
            [("a".to_string(), mid), ("y".to_string(), pout)].into();
        parent.instantiate("i1", &child, &m2).unwrap();

        assert_eq!(parent.component_count(), 2);
        assert_eq!(parent.device_count(), 4);
        // Labels are per-instance.
        assert!(parent.labels().lookup("i0/P1").is_some());
        assert!(parent.labels().lookup("i1/N1").is_some());
        assert_eq!(parent.labels().len(), 4);
        // Every net but the primary input has exactly one driver.
        for (id, net) in parent.nets() {
            let expected = usize::from(id != pin);
            assert_eq!(parent.drivers_of(id).len(), expected, "{}", net.name);
        }
        // mid has one driver (i0) and one load (i1).
        assert_eq!(parent.drivers_of(mid).len(), 1);
        assert_eq!(parent.loads_of(mid).len(), 1);
    }

    #[test]
    fn auto_port_map_exposes_unmapped_ports() {
        let child = inverter_macro();
        let mut parent = Circuit::new("block");
        let map = parent
            .auto_port_map("m0", &child, HashMap::new())
            .unwrap();
        parent.instantiate("m0", &child, &map).unwrap();
        let a = parent.find_net("m0_a").unwrap();
        let y = parent.find_net("m0_y").unwrap();
        // The unmapped input sits on the input port (not floating) and the
        // output port is the net the instance drives.
        let inputs: Vec<_> = parent.input_ports().map(|p| p.net).collect();
        let outputs: Vec<_> = parent.output_ports().map(|p| p.net).collect();
        assert_eq!(inputs, [a]);
        assert_eq!(outputs, [y]);
        assert_eq!(parent.drivers_of(y).len(), 1);
        assert_eq!(parent.loads_of(a).len(), 1);
    }

    #[test]
    fn unknown_parent_net_is_rejected() {
        let child = inverter_macro();
        let mut parent = Circuit::new("block");
        let bogus: HashMap<String, NetId> =
            [("a".to_string(), NetId::from_index(99))].into();
        assert!(matches!(
            parent.instantiate("i0", &child, &bogus),
            Err(NetlistError::UnknownNet { .. })
        ));
    }

    #[test]
    fn wire_caps_carry_over_on_merge() {
        let mut child = inverter_macro();
        let a = child.find_net("a").unwrap();
        child.set_wire_cap(a, 3.0);
        let mut parent = Circuit::new("block");
        let pin = parent.add_net("in").unwrap();
        parent.set_wire_cap(pin, 2.0);
        parent.expose_input("in", pin);
        let map: HashMap<String, NetId> = [("a".to_string(), pin)].into();
        let mut full = map;
        full = parent.auto_port_map("i0", &child, full).unwrap();
        parent.instantiate("i0", &child, &full).unwrap();
        assert!((parent.net(pin).wire_cap - 5.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod shared_label_tests {
    use super::tests_support::inverter_macro;
    use super::*;

    #[test]
    fn shared_instances_bind_one_label_set() {
        let child = inverter_macro();
        let mut parent = Circuit::new("block");
        for i in 0..3 {
            let map = parent
                .auto_port_map(&format!("i{i}"), &child, HashMap::new())
                .unwrap();
            parent
                .instantiate_shared(&format!("i{i}"), &child, &map)
                .unwrap();
        }
        // One shared P1/N1 pair for all three instances.
        assert_eq!(parent.labels().len(), 2);
        assert!(parent.labels().lookup("inv_macro::P1").is_some());
        // Width accounting couples the instances.
        let mut sizing = crate::Sizing::uniform(parent.labels(), 1.0);
        sizing.set_width(parent.labels().lookup("inv_macro::N1").unwrap(), 4.0);
        assert_eq!(parent.total_width(&sizing), 3.0 * (1.0 + 4.0));
    }

    #[test]
    fn mixed_shared_and_private_instances() {
        let child = inverter_macro();
        let mut parent = Circuit::new("block");
        let map = parent.auto_port_map("s0", &child, HashMap::new()).unwrap();
        parent.instantiate_shared("s0", &child, &map).unwrap();
        let map = parent.auto_port_map("p0", &child, HashMap::new()).unwrap();
        parent.instantiate("p0", &child, &map).unwrap();
        assert_eq!(parent.labels().len(), 4, "2 shared + 2 private");
    }
}

#[cfg(test)]
mod tests_support {
    use super::*;
    use crate::{ComponentKind, DeviceRole, Skew};

    /// Shared helper for composition tests.
    pub fn inverter_macro() -> Circuit {
        let mut c = Circuit::new("inv_macro");
        let a = c.add_net("a").unwrap();
        let y = c.add_net("y").unwrap();
        let p = c.label("P1");
        let n = c.label("N1");
        c.add(
            "u",
            ComponentKind::Inverter { skew: Skew::Balanced },
            &[a, y],
            &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
        )
        .unwrap();
        c.expose_input("a", a);
        c.expose_output("y", y);
        c
    }
}
