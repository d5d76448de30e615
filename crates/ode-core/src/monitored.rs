//! Monitored classes — the §8 extension: "we are considering supplying
//! *monitored classes*, non-persistent classes with triggers — allowing
//! non-persistent classes to use triggers, while maintaining our design
//! principle that only objects that have access to trigger functionality
//! pay any trigger overhead."
//!
//! A [`MonitoredSpace<T>`] owns plain Rust values of one class and runs
//! the full composite-event machinery over them — the same expression
//! language and FSM compiler as persistent triggers — entirely in memory:
//! no database, no transactions, no locks, no durability. Masks see `&T`;
//! actions get `&mut T`. Coupling modes do not apply (there is no
//! transaction to couple to); every firing is immediate.
//!
//! Ordinary (unmonitored) Rust values of the same type never touch any of
//! this, preserving the pay-for-what-you-use principle.

use crate::error::{OdeError, Result};
use ode_events::ast::Alphabet;
use ode_events::dfa::Dfa;
use ode_events::event::{BasicEvent, EventId, EventTime, MaskId};
use ode_events::machine::Advance;
use ode_events::registry::EventRegistry;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;

type MonMask<T> = Arc<dyn Fn(&T, &[u8]) -> bool + Send + Sync>;
type MonAction<T> = Arc<dyn Fn(&mut T, &[u8]) -> Result<()> + Send + Sync>;

struct MonTrigger<T> {
    name: String,
    fsm: Dfa,
    action: MonAction<T>,
    perpetual: bool,
}

/// The compiled definition of a monitored class.
pub struct MonitoredClass<T> {
    name: String,
    alphabet: Alphabet,
    events: Vec<(BasicEvent, EventId)>,
    masks: Vec<MonMask<T>>,
    triggers: Vec<MonTrigger<T>>,
}

/// Builder for [`MonitoredClass`].
pub struct MonitoredClassBuilder<T> {
    name: String,
    events: Vec<BasicEvent>,
    masks: Vec<(String, MonMask<T>)>,
    triggers: Vec<(String, String, bool, MonAction<T>)>,
}

impl<T> MonitoredClassBuilder<T> {
    /// Start defining a monitored class.
    pub fn new(name: &str) -> Self {
        MonitoredClassBuilder {
            name: name.to_string(),
            events: Vec::new(),
            masks: Vec::new(),
            triggers: Vec::new(),
        }
    }

    /// Declare `after <method>`.
    pub fn after_event(mut self, method: &str) -> Self {
        self.events.push(BasicEvent::after(method));
        self
    }

    /// Declare `before <method>`.
    pub fn before_event(mut self, method: &str) -> Self {
        self.events.push(BasicEvent::before(method));
        self
    }

    /// Declare a user-defined event.
    pub fn user_event(mut self, name: &str) -> Self {
        self.events.push(BasicEvent::user(name));
        self
    }

    /// Define a mask predicate over the object and the trigger parameters.
    pub fn mask(
        mut self,
        name: &str,
        f: impl Fn(&T, &[u8]) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.masks.push((name.to_string(), Arc::new(f)));
        self
    }

    /// Define a trigger (always immediate; `perpetual` as in §4).
    pub fn trigger(
        mut self,
        name: &str,
        expr: &str,
        perpetual: crate::class::Perpetual,
        action: impl Fn(&mut T, &[u8]) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        self.triggers.push((
            name.to_string(),
            expr.to_string(),
            perpetual == crate::class::Perpetual::Yes,
            Arc::new(action),
        ));
        self
    }

    /// Intern events and compile the trigger FSMs.
    pub fn build(self, registry: &EventRegistry) -> Result<Arc<MonitoredClass<T>>> {
        let mut alphabet = Alphabet::new();
        let mut events = Vec::new();
        for event in self.events {
            if events.iter().any(|(e, _)| *e == event) {
                continue;
            }
            let id = registry.intern(&self.name, &event);
            alphabet.add_event(id, &event.key());
            events.push((event, id));
        }
        let mut masks = Vec::new();
        for (name, f) in self.masks {
            alphabet.add_mask(&name);
            masks.push(f);
        }
        let mut triggers = Vec::new();
        for (name, expr, perpetual, action) in self.triggers {
            let te = ode_events::parser::parse(&expr, &alphabet)?;
            triggers.push(MonTrigger {
                name,
                fsm: Dfa::compile(&te, &alphabet),
                action,
                perpetual,
            });
        }
        Ok(Arc::new(MonitoredClass {
            name: self.name,
            alphabet,
            events,
            masks,
            triggers,
        }))
    }
}

impl<T> MonitoredClass<T> {
    /// Class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The class alphabet (for display).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn event_id(&self, event: &BasicEvent) -> Option<EventId> {
        self.events
            .iter()
            .find(|(e, _)| e == event)
            .map(|(_, id)| *id)
    }

    fn trigger(&self, name: &str) -> Option<(usize, &MonTrigger<T>)> {
        self.triggers
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == name)
    }
}

/// Handle to a monitored object inside a [`MonitoredSpace`].
pub struct MonitoredPtr<T> {
    id: usize,
    _type: PhantomData<fn() -> T>,
}

impl<T> Clone for MonitoredPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for MonitoredPtr<T> {}
impl<T> std::fmt::Debug for MonitoredPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MonitoredPtr({})", self.id)
    }
}

struct MonInstance {
    triggernum: usize,
    statenum: u32,
    params: Vec<u8>,
    alive: bool,
}

/// One monitored object and its trigger instances.
struct MonObject<T> {
    value: T,
    instances: Vec<MonInstance>,
}

/// A space of monitored (volatile) objects of one class.
pub struct MonitoredSpace<T> {
    class: Arc<MonitoredClass<T>>,
    slots: Mutex<Vec<Option<MonObject<T>>>>,
}

impl<T> MonitoredSpace<T> {
    /// Create a space for a monitored class.
    pub fn new(class: Arc<MonitoredClass<T>>) -> MonitoredSpace<T> {
        MonitoredSpace {
            class,
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Add an object to the space.
    pub fn create(&self, value: T) -> MonitoredPtr<T> {
        let mut slots = self.slots.lock();
        let id = slots.len();
        slots.push(Some(MonObject {
            value,
            instances: Vec::new(),
        }));
        MonitoredPtr {
            id,
            _type: PhantomData,
        }
    }

    /// Remove an object (its triggers die with it).
    pub fn destroy(&self, ptr: MonitoredPtr<T>) -> Result<T> {
        self.slots.lock()[ptr.id]
            .take()
            .map(|s| s.value)
            .ok_or_else(|| OdeError::Schema(format!("monitored object {} is gone", ptr.id)))
    }

    /// Read the object through a closure.
    pub fn with<R>(&self, ptr: MonitoredPtr<T>, f: impl FnOnce(&T) -> R) -> Result<R> {
        let slots = self.slots.lock();
        let slot = slots
            .get(ptr.id)
            .and_then(|s| s.as_ref())
            .ok_or_else(|| OdeError::Schema(format!("monitored object {} is gone", ptr.id)))?;
        Ok(f(&slot.value))
    }

    /// Activate a trigger of the monitored class on an object.
    pub fn activate<P: ode_storage::codec::Encode>(
        &self,
        ptr: MonitoredPtr<T>,
        trigger: &str,
        params: &P,
    ) -> Result<()> {
        let (triggernum, info) = self.class.trigger(trigger).ok_or_else(|| {
            OdeError::Schema(format!(
                "monitored class {:?} has no trigger {trigger:?}",
                self.class.name
            ))
        })?;
        let params = ode_storage::codec::encode_to_vec(params);
        let mut slots = self.slots.lock();
        let slot = slots
            .get_mut(ptr.id)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| OdeError::Schema(format!("monitored object {} is gone", ptr.id)))?;
        let class = &self.class;
        let outcome = info
            .fsm
            .activate(|m| Self::eval_mask(class, &slot.value, m, &params));
        let mut fire_now = false;
        match outcome.status {
            Advance::Dead => return Ok(()),
            _ => {
                if outcome.accepted {
                    fire_now = true;
                }
            }
        }
        if !fire_now || info.perpetual {
            slot.instances.push(MonInstance {
                triggernum,
                statenum: outcome.state,
                params: params.clone(),
                alive: true,
            });
        }
        if fire_now {
            let action = Arc::clone(&info.action);
            let value = &mut slot.value;
            action(value, &params)?;
        }
        Ok(())
    }

    fn eval_mask(class: &MonitoredClass<T>, value: &T, m: MaskId, params: &[u8]) -> bool {
        class
            .masks
            .get(m.0 as usize)
            .map(|f| f(value, params))
            .unwrap_or(false)
    }

    /// Invoke a member function: posts `before`/`after` events around the
    /// body (the monitored analogue of [`crate::Database::invoke`]).
    pub fn invoke<R>(
        &self,
        ptr: MonitoredPtr<T>,
        method: &str,
        body: impl FnOnce(&mut T) -> Result<R>,
    ) -> Result<R> {
        if let Some(e) = self.class.event_id(&BasicEvent::Member {
            name: method.to_string(),
            time: EventTime::Before,
        }) {
            self.post(ptr, e)?;
        }
        let result = {
            let mut slots = self.slots.lock();
            let slot = slots
                .get_mut(ptr.id)
                .and_then(|s| s.as_mut())
                .ok_or_else(|| OdeError::Schema(format!("monitored object {} is gone", ptr.id)))?;
            body(&mut slot.value)?
        };
        if let Some(e) = self.class.event_id(&BasicEvent::Member {
            name: method.to_string(),
            time: EventTime::After,
        }) {
            self.post(ptr, e)?;
        }
        Ok(result)
    }

    /// Post a user-defined event to an object.
    pub fn post_user_event(&self, ptr: MonitoredPtr<T>, event: &str) -> Result<()> {
        let id = self
            .class
            .event_id(&BasicEvent::user(event))
            .ok_or_else(|| {
                OdeError::Schema(format!(
                    "event {event:?} is not declared by monitored class {}",
                    self.class.name
                ))
            })?;
        self.post(ptr, id)
    }

    /// Advance every live instance on the object; fire after all posting
    /// (the §5.4.5 rule, same as the persistent run-time).
    fn post(&self, ptr: MonitoredPtr<T>, event: EventId) -> Result<()> {
        let mut slots = self.slots.lock();
        let slot = slots
            .get_mut(ptr.id)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| OdeError::Schema(format!("monitored object {} is gone", ptr.id)))?;
        let class = &self.class;
        let mut to_fire: Vec<(MonAction<T>, Vec<u8>)> = Vec::new();
        let value_ptr = &slot.value;
        for inst in &mut slot.instances {
            if !inst.alive {
                continue;
            }
            let info = &class.triggers[inst.triggernum];
            let outcome = info.fsm.post(inst.statenum, event, |m| {
                Self::eval_mask(class, value_ptr, m, &inst.params)
            });
            match outcome.status {
                Advance::Ignored => {}
                Advance::Dead => inst.alive = false,
                Advance::Moved => {
                    inst.statenum = outcome.state;
                    if outcome.accepted {
                        to_fire.push((Arc::clone(&info.action), inst.params.clone()));
                        if !info.perpetual {
                            inst.alive = false;
                        }
                    }
                }
            }
        }
        slot.instances.retain(|i| i.alive);
        for (action, params) in to_fire {
            action(&mut slot.value, &params)?;
        }
        Ok(())
    }

    /// Live trigger instances on an object.
    pub fn active_triggers(&self, ptr: MonitoredPtr<T>) -> usize {
        self.slots.lock()[ptr.id]
            .as_ref()
            .map(|s| s.instances.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Perpetual;

    #[derive(Debug, Clone, PartialEq)]
    struct Session {
        failures: u32,
        locked: bool,
    }

    fn class(registry: &EventRegistry) -> Arc<MonitoredClass<Session>> {
        MonitoredClassBuilder::<Session>::new("Session")
            .after_event("Login")
            .user_event("Reset")
            .mask("Failed", |s, _| s.failures > 0)
            .trigger(
                // Three consecutive failing logins lock the session.
                "Lockout",
                "(after Login & Failed()), (after Login & Failed()), (after Login & Failed())",
                Perpetual::Yes,
                |s, _| {
                    s.locked = true;
                    Ok(())
                },
            )
            .build(registry)
            .unwrap()
    }

    #[test]
    fn monitored_triggers_fire_on_volatile_objects() {
        let registry = EventRegistry::new();
        let space = MonitoredSpace::new(class(&registry));
        let s = space.create(Session {
            failures: 0,
            locked: false,
        });
        space.activate(s, "Lockout", &()).unwrap();

        let fail_login = || {
            space
                .invoke(s, "Login", |sess| {
                    sess.failures += 1;
                    Ok(())
                })
                .unwrap();
        };
        fail_login();
        fail_login();
        assert!(!space.with(s, |sess| sess.locked).unwrap());
        fail_login();
        assert!(space.with(s, |sess| sess.locked).unwrap());
    }

    #[test]
    fn successful_login_breaks_the_sequence() {
        let registry = EventRegistry::new();
        let space = MonitoredSpace::new(class(&registry));
        let s = space.create(Session {
            failures: 0,
            locked: false,
        });
        space.activate(s, "Lockout", &()).unwrap();
        space
            .invoke(s, "Login", |sess| {
                sess.failures += 1;
                Ok(())
            })
            .unwrap();
        space
            .invoke(s, "Login", |sess| {
                sess.failures = 0; // success resets
                Ok(())
            })
            .unwrap();
        space
            .invoke(s, "Login", |sess| {
                sess.failures += 1;
                Ok(())
            })
            .unwrap();
        assert!(!space.with(s, |sess| sess.locked).unwrap());
    }

    #[test]
    fn unactivated_objects_pay_nothing() {
        let registry = EventRegistry::new();
        let space = MonitoredSpace::new(class(&registry));
        let s = space.create(Session {
            failures: 9,
            locked: false,
        });
        // No activation: the invoke advances nothing, fires nothing.
        space.invoke(s, "Login", |_| Ok(())).unwrap();
        assert_eq!(space.active_triggers(s), 0);
        assert!(!space.with(s, |sess| sess.locked).unwrap());
    }

    #[test]
    fn user_events_and_destroy() {
        let registry = EventRegistry::new();
        let space = MonitoredSpace::new(class(&registry));
        let s = space.create(Session {
            failures: 0,
            locked: false,
        });
        space.activate(s, "Lockout", &()).unwrap();
        assert_eq!(space.active_triggers(s), 1);
        space.post_user_event(s, "Reset").unwrap();
        assert!(space.post_user_event(s, "Nope").is_err());
        let val = space.destroy(s).unwrap();
        assert_eq!(val.failures, 0);
        assert!(space.with(s, |_| ()).is_err());
        assert!(space.invoke(s, "Login", |_| Ok(())).is_err());
    }

    #[test]
    fn per_object_instances_are_independent() {
        let registry = EventRegistry::new();
        let space = MonitoredSpace::new(class(&registry));
        let a = space.create(Session {
            failures: 1,
            locked: false,
        });
        let b = space.create(Session {
            failures: 1,
            locked: false,
        });
        space.activate(a, "Lockout", &()).unwrap();
        // Only `a` is monitored.
        for _ in 0..3 {
            space.invoke(a, "Login", |_| Ok(())).unwrap();
            space.invoke(b, "Login", |_| Ok(())).unwrap();
        }
        assert!(space.with(a, |s| s.locked).unwrap());
        assert!(!space.with(b, |s| s.locked).unwrap());
    }
}
