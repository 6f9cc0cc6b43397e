//! The Gaia-like ABCI application: accounts, bank, gas and the embedded IBC
//! module, wired into the Tendermint node via the [`Application`] trait.

use std::rc::Rc;

use crate::account::{AccountId, AccountKeeper};
use crate::ante::{self, AnteError};
use crate::bank::BankModule;
use crate::gas;
use crate::genesis::GenesisConfig;
use crate::msg::Msg;
use crate::tx::Tx;
use xcc_ibc::height::Height;
use xcc_ibc::module::{HostContext, IbcModule};
use xcc_ibc::transfer::BankKeeper;
use xcc_sim::SimTime;
use xcc_tendermint::abci::{
    encoded_attr_size, Application, AttrValue, CheckTxResult, DeliverTxResult, Event,
    EventAttribute, EventRecord,
};
use xcc_tendermint::block::Header;
use xcc_tendermint::hash::{hash_fields, Hash};

/// The account that collects transaction fees.
pub const FEE_COLLECTOR: &str = "fee-collector";

/// ABCI error code for a message that failed during execution.
pub const CODE_MSG_FAILED: u32 = 111;

/// The one attribute of a `message` event: the executed message's type URL,
/// as `action`. The app keeps one record per type URL and every `message`
/// event of that type shares it, so a committed block holds a handle per
/// message instead of an attribute list of its own.
#[derive(Debug)]
struct MessageAction(&'static str);

impl EventRecord for MessageAction {
    fn attributes(&self, _kind: &'static str) -> Vec<EventAttribute> {
        vec![EventAttribute {
            key: "action",
            value: AttrValue::Static(self.0),
        }]
    }

    fn encoded_size(&self, _kind: &'static str) -> usize {
        encoded_attr_size("action", self.0.len())
    }
}

/// The Gaia-like blockchain application.
///
/// It keeps two copies of the account state: the committed state used by
/// `DeliverTx`, and a check state used by `CheckTx` so that several
/// transactions from the same account (with consecutive sequences) can be
/// admitted to the mempool within one block, exactly as the Cosmos SDK does.
/// `DeliverTx` is transactional without a state snapshot: see
/// [`GaiaApp::deliver_tx`](Application::deliver_tx).
#[derive(Debug, Clone)]
pub struct GaiaApp {
    chain_id: String,
    fee_denom: String,
    accounts: AccountKeeper,
    check_accounts: AccountKeeper,
    bank: BankModule,
    ibc: IbcModule,
    height: u64,
    block_time: SimTime,
    /// The shared `message` event records, one per type URL executed so far.
    message_actions: Vec<Rc<MessageAction>>,
}

impl GaiaApp {
    /// Creates the application from a genesis configuration.
    pub fn from_genesis(genesis: &GenesisConfig) -> Self {
        let mut accounts = AccountKeeper::new();
        let mut bank = BankModule::new();
        accounts.get_or_create(&AccountId::new(FEE_COLLECTOR));
        for (address, coins) in &genesis.accounts {
            accounts.get_or_create(address);
            for coin in coins {
                bank.mint_coins(address, coin);
            }
        }
        GaiaApp {
            chain_id: genesis.chain_id.clone(),
            fee_denom: genesis.fee_denom.clone(),
            check_accounts: accounts.clone(),
            accounts,
            bank,
            ibc: IbcModule::new(genesis.chain_id.clone()),
            height: 0,
            block_time: SimTime::ZERO,
            message_actions: Vec::new(),
        }
    }

    /// The chain identifier.
    pub fn chain_id(&self) -> &str {
        &self.chain_id
    }

    /// The native fee denomination.
    pub fn fee_denom(&self) -> &str {
        &self.fee_denom
    }

    /// Current block height as seen by the application.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Current block time as seen by the application.
    pub fn block_time(&self) -> SimTime {
        self.block_time
    }

    /// The host context handed to IBC handlers.
    pub fn host_context(&self) -> HostContext {
        HostContext {
            height: Height::at(self.height),
            time: self.block_time,
        }
    }

    /// Read access to the committed account state.
    pub fn accounts(&self) -> &AccountKeeper {
        &self.accounts
    }

    /// Read access to the bank module.
    pub fn bank(&self) -> &BankModule {
        &self.bank
    }

    /// Read access to the IBC module.
    pub fn ibc(&self) -> &IbcModule {
        &self.ibc
    }

    /// Mutable access to the IBC module, used by the setup phase to perform
    /// the client/connection/channel handshakes directly (the paper's tool
    /// likewise automates channel setup before benchmarking).
    pub fn ibc_mut(&mut self) -> &mut IbcModule {
        &mut self.ibc
    }

    /// The committed sequence of an account, as a client querying the chain
    /// would observe it.
    pub fn account_sequence(&self, address: &AccountId) -> u64 {
        self.accounts.sequence(address)
    }

    /// The check-state sequence of an account: the sequence `CheckTx` expects
    /// on that account's next submission. It runs ahead of the committed
    /// sequence while the account's transactions sit in the mempool, and is
    /// reset to the committed sequence at every commit — which is exactly
    /// what strands a client that tracked its own continuation across a
    /// straddled commit (§V's account-sequence race).
    pub fn check_account_sequence(&self, address: &AccountId) -> u64 {
        self.check_accounts.sequence(address)
    }

    /// The `message` event of a message of type `url`, holding the app's
    /// one record of that action.
    fn message_event(&mut self, url: &'static str) -> Event {
        let action = match self.message_actions.iter().find(|action| action.0 == url) {
            Some(action) => Rc::clone(action),
            None => {
                let action = Rc::new(MessageAction(url));
                self.message_actions.push(Rc::clone(&action));
                action
            }
        };
        Event::new("message", []).with_record(action)
    }

    /// Executes one message against the application state.
    fn execute_msg(&mut self, msg: &Msg) -> Result<Vec<Event>, String> {
        let ctx = self.host_context();
        match msg {
            Msg::BankSend { from, to, amount } => {
                self.bank
                    .transfer(from, to, amount)
                    .map_err(|e| e.to_string())?;
                Ok(vec![Event::new(
                    "transfer",
                    [
                        ("sender", from.to_string().into()),
                        ("recipient", to.to_string().into()),
                        ("amount", amount.to_string().into()),
                    ],
                )])
            }
            Msg::IbcTransfer(params) => self
                .ibc
                .send_transfer(&ctx, &mut self.bank, params)
                .map_err(|e| e.to_string()),
            Msg::IbcRecvPacket {
                packet,
                proof_commitment,
                proof_height,
                ..
            } => {
                let (_ack, events) = self
                    .ibc
                    .recv_packet(
                        &ctx,
                        &mut self.bank,
                        packet,
                        proof_commitment,
                        *proof_height,
                    )
                    .map_err(|e| e.to_string())?;
                Ok(events)
            }
            Msg::IbcAcknowledgement {
                packet,
                acknowledgement,
                proof_acked,
                proof_height,
                ..
            } => self
                .ibc
                .acknowledge_packet(
                    &ctx,
                    &mut self.bank,
                    packet,
                    acknowledgement,
                    proof_acked,
                    *proof_height,
                )
                .map_err(|e| e.to_string()),
            Msg::IbcTimeout {
                packet,
                proof_unreceived,
                proof_height,
                ..
            } => self
                .ibc
                .timeout_packet(
                    &ctx,
                    &mut self.bank,
                    packet,
                    proof_unreceived,
                    *proof_height,
                )
                .map_err(|e| e.to_string()),
            Msg::IbcUpdateClient {
                client_id, update, ..
            } => self
                .ibc
                .update_client(client_id, update)
                .map_err(|e| e.to_string()),
        }
    }

    /// Opens a transaction on every keeper `DeliverTx` writes.
    fn begin_tx(&mut self) {
        self.accounts.begin_tx();
        self.bank.begin_tx();
        self.ibc.begin_tx();
    }

    /// Keeps what the open transaction wrote.
    fn commit_tx(&mut self) {
        self.accounts.commit_tx();
        self.bank.commit_tx();
        self.ibc.commit_tx();
    }

    /// Reverts what the open transaction wrote: every key of every keeper
    /// holds what it held at `begin_tx`.
    fn rollback_tx(&mut self) {
        self.accounts.rollback_tx();
        self.bank.rollback_tx();
        self.ibc.rollback_tx();
    }

    /// Charges the transaction fee to the fee collector.
    fn pay_fee(&mut self, tx: &Tx) -> Result<(), String> {
        if tx.fee.amount == 0 {
            return Ok(());
        }
        let payer = tx.signer.as_str();
        self.bank
            .send(payer, FEE_COLLECTOR, &tx.fee.denom, tx.fee.amount)
    }

    fn ante_failure(err: &AnteError, gas_wanted: u64) -> DeliverTxResult {
        DeliverTxResult {
            code: err.code(),
            log: err.to_string(),
            gas_used: gas::TX_BASE_GAS.min(gas_wanted),
            gas_wanted,
            events: vec![],
        }
    }
}

impl Application for GaiaApp {
    /// Every submission hands the node the `Tx` its client built, so
    /// `CheckTx` and `DeliverTx` run on it and nothing parses bytes.
    type Decoded = Tx;

    fn check_tx(&mut self, tx: &Tx) -> CheckTxResult {
        let (code, log) = match ante::ante_handle(&mut self.check_accounts, tx) {
            Ok(()) => (0, String::new()),
            Err(err) => (err.code(), err.to_string()),
        };
        CheckTxResult {
            code,
            log,
            gas_wanted: tx.gas_limit,
            sender: tx.signer.to_string(),
            sequence: tx.sequence,
        }
    }

    fn begin_block(&mut self, header: &Header) {
        self.height = header.height;
        self.block_time = header.time;
    }

    /// Executes one transaction, all or nothing.
    ///
    /// The keepers run inside a journaled transaction (see
    /// [`xcc_tendermint::journal`]): every write records the value it
    /// replaced, so reverting costs what the transaction wrote, not a copy of
    /// the accounts, balances, commitments and packets it left alone.
    ///
    /// * An ante failure (unknown signer, stale sequence, bad signature)
    ///   writes nothing.
    /// * A signer who cannot pay the fee gets the ante's sequence bump
    ///   reverted: the transaction leaves no trace.
    /// * A failing message reverts everything — its own partial effects and
    ///   those of the messages before it — and then the ante and the fee are
    ///   applied again on the restored state: the failed transaction still
    ///   occupies block space, consumes gas, keeps its fee (relayers pay for
    ///   redundant deliveries, §IV-A) and uses up the account sequence so it
    ///   cannot be replayed.
    fn deliver_tx(&mut self, tx: Tx) -> DeliverTxResult {
        let gas_wanted = tx.gas_limit;

        self.begin_tx();
        if let Err(err) = ante::ante_handle(&mut self.accounts, &tx) {
            self.commit_tx();
            return Self::ante_failure(&err, gas_wanted);
        }
        if let Err(log) = self.pay_fee(&tx) {
            self.rollback_tx();
            return DeliverTxResult {
                code: ante::CODE_INSUFFICIENT_FUNDS,
                log,
                gas_used: gas::TX_BASE_GAS,
                gas_wanted,
                events: vec![],
            };
        }

        let mut events = Vec::new();
        let mut gas_used = gas::TX_BASE_GAS;
        for msg in &tx.msgs {
            gas_used += msg.gas_cost();
            match self.execute_msg(msg) {
                Ok(mut msg_events) => {
                    events.push(self.message_event(msg.type_url()));
                    events.append(&mut msg_events);
                }
                Err(log) => {
                    self.rollback_tx();
                    let _ = ante::ante_handle(&mut self.accounts, &tx);
                    let _ = self.pay_fee(&tx);
                    return DeliverTxResult {
                        code: CODE_MSG_FAILED,
                        log,
                        gas_used,
                        gas_wanted,
                        events: vec![],
                    };
                }
            }
        }
        self.commit_tx();
        // The committed block keeps the events to the end of the run.
        events.shrink_to_fit();

        DeliverTxResult {
            code: 0,
            log: String::new(),
            gas_used,
            gas_wanted,
            events,
        }
    }

    fn end_block(&mut self, _height: u64) {}

    fn commit(&mut self) -> Hash {
        // The check state is reset to the committed state after every block,
        // like resetting the CheckTx state in the SDK.
        self.check_accounts = self.accounts.clone();
        hash_fields(&[
            b"gaia-app-hash",
            self.bank.state_hash().as_bytes(),
            self.ibc.commitment_root().as_bytes(),
            &self.height.to_be_bytes(),
        ])
    }
}

/// A funded application for the unit tests below.
#[cfg(test)]
fn funded_app(chain_id: &str, users: usize, balance: u128) -> GaiaApp {
    let genesis = GenesisConfig::new(chain_id)
        .with_account("relayer", balance)
        .with_funded_accounts("user", users, balance);
    GaiaApp::from_genesis(&genesis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coin::Coin;
    use xcc_ibc::ids::{ChannelId, PortId};
    use xcc_ibc::module::TransferParams;

    fn bank_send_tx(app: &GaiaApp, from: &str, to: &str, amount: u128, seq: u64) -> Tx {
        let _ = app;
        Tx::new(
            from.into(),
            seq,
            vec![Msg::BankSend {
                from: from.into(),
                to: to.into(),
                amount: Coin::new("uatom", amount),
            }],
            "uatom",
        )
    }

    fn header_at(app: &GaiaApp, height: u64, secs: u64) -> Header {
        use xcc_tendermint::block::{BlockId, Data, Version};
        use xcc_tendermint::validator::{ValidatorAddress, ValidatorSet};
        let vals = ValidatorSet::with_equal_power(5, 10);
        Header {
            version: Version::default(),
            chain_id: app.chain_id().to_string(),
            height,
            time: SimTime::from_secs(secs),
            last_block_id: BlockId { hash: Hash::ZERO },
            last_commit_hash: Hash::ZERO,
            data_hash: Data::default().hash(),
            validators_hash: vals.hash(),
            next_validators_hash: vals.hash(),
            consensus_hash: Hash::ZERO,
            app_hash: Hash::ZERO,
            last_results_hash: Hash::ZERO,
            evidence_hash: xcc_tendermint::block::evidence_hash(),
            proposer_address: ValidatorAddress::from_name("val-0"),
        }
    }

    #[test]
    fn genesis_funds_accounts_and_creates_fee_collector() {
        let app = funded_app("chain-a", 3, 1_000);
        assert_eq!(app.bank().balance(&"user-0".into(), "uatom"), 1_000);
        assert_eq!(app.bank().balance(&"relayer".into(), "uatom"), 1_000);
        assert!(app.accounts().get(&AccountId::new(FEE_COLLECTOR)).is_some());
        assert_eq!(app.account_sequence(&"user-0".into()), 0);
    }

    #[test]
    fn check_tx_accepts_consecutive_sequences_within_a_block() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        let tx0 = bank_send_tx(&app, "user-0", "relayer", 1, 0);
        let tx1 = bank_send_tx(&app, "user-0", "relayer", 1, 1);
        assert!(app.check_tx(&tx0).is_ok());
        // The check state advanced, so sequence 1 is now admissible even
        // though nothing has been committed yet.
        assert!(app.check_tx(&tx1).is_ok());
        // But replaying sequence 0 is the "account sequence mismatch" error.
        let res = app.check_tx(&tx0);
        assert_eq!(res.code, ante::CODE_SEQUENCE_MISMATCH);
        assert!(res.log.contains("account sequence mismatch"));
    }

    #[test]
    fn deliver_tx_moves_funds_charges_fees_and_bumps_sequence() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        app.begin_block(&header_at(&app, 1, 5));
        let res = app.deliver_tx(bank_send_tx(&app, "user-0", "relayer", 500, 0));
        assert!(res.is_ok(), "log: {}", res.log);
        assert!(res.gas_used > 0 && res.gas_used <= res.gas_wanted);
        assert!(!res.events.is_empty());
        app.end_block(1);
        app.commit();

        let fee = gas::fee_for_gas(gas::TX_BASE_GAS + gas::MSG_BANK_SEND_GAS);
        assert_eq!(app.bank().balance(&"relayer".into(), "uatom"), 1_000_500);
        assert_eq!(
            app.bank().balance(&"user-0".into(), "uatom"),
            1_000_000 - 500 - fee
        );
        assert_eq!(
            app.bank().balance(&AccountId::new(FEE_COLLECTOR), "uatom"),
            fee
        );
        assert_eq!(app.account_sequence(&"user-0".into()), 1);
    }

    /// A `message` event holds the app's one record of its action and
    /// shows, and sizes, exactly what a listed `action` attribute shows.
    #[test]
    fn message_events_share_one_action_record_per_type_url() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        let urls = [
            "/cosmos.bank.v1beta1.MsgSend",
            "/ibc.applications.transfer.v1.MsgTransfer",
            "/ibc.core.channel.v1.MsgRecvPacket",
            "/ibc.core.channel.v1.MsgAcknowledgement",
            "/ibc.core.channel.v1.MsgTimeout",
            "/ibc.core.client.v1.MsgUpdateClient",
        ];
        for url in urls {
            let listed = Event::new("message", [("action", AttrValue::Static(url))]);
            let shared = app.message_event(url);
            assert_eq!(shared.kind, listed.kind);
            assert_eq!(shared.attributes(), listed.attributes(), "{url}");
            assert_eq!(shared.attr("action"), Some(AttrValue::Static(url)));
            assert_eq!(shared.encoded_size(), listed.encoded_size(), "{url}");
            let again = app.message_event(url);
            assert!(Rc::ptr_eq(
                shared.record().unwrap(),
                again.record().unwrap()
            ));
        }
        assert_eq!(app.message_actions.len(), urls.len());

        app.begin_block(&header_at(&app, 1, 5));
        let res = app.deliver_tx(bank_send_tx(&app, "user-0", "relayer", 500, 0));
        let sent = &res.events[0];
        assert_eq!(sent.attr("action"), Some(AttrValue::Static(urls[0])));
        let kept = app.message_event(urls[0]);
        assert!(Rc::ptr_eq(sent.record().unwrap(), kept.record().unwrap()));
        assert_eq!(app.message_actions.len(), urls.len());
    }

    #[test]
    fn deliver_tx_with_stale_sequence_fails_with_code_32() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        app.begin_block(&header_at(&app, 1, 5));
        assert!(app
            .deliver_tx(bank_send_tx(&app, "user-0", "relayer", 1, 0))
            .is_ok());
        let res = app.deliver_tx(bank_send_tx(&app, "user-0", "relayer", 1, 0));
        assert_eq!(res.code, ante::CODE_SEQUENCE_MISMATCH);
    }

    #[test]
    fn failing_message_reverts_state_but_consumes_sequence_and_gas() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        app.begin_block(&header_at(&app, 1, 5));
        // Transfer over a non-existent channel fails at the IBC layer.
        let bad = Tx::new(
            "user-0".into(),
            0,
            vec![Msg::IbcTransfer(TransferParams {
                source_port: PortId::transfer(),
                source_channel: ChannelId::with_index(0),
                denom: "uatom".into(),
                amount: 10,
                sender: "user-0".into(),
                receiver: "bob".into(),
                timeout_height: Height::at(100),
                timeout_timestamp: SimTime::ZERO,
            })],
            "uatom",
        );
        let res = app.deliver_tx(bad);
        assert_eq!(res.code, CODE_MSG_FAILED);
        assert!(res.gas_used > 0);
        // Transfer effects reverted, but the fee is kept and the sequence is
        // consumed.
        let fee = gas::fee_for_gas(gas::TX_BASE_GAS + gas::MSG_TRANSFER_GAS);
        assert_eq!(
            app.bank().balance(&"user-0".into(), "uatom"),
            1_000_000 - fee
        );
        assert_eq!(app.account_sequence(&"user-0".into()), 1);
    }

    /// `CheckTx` and `DeliverTx` run on the transaction they are handed:
    /// neither encodes nor decodes anything, and a refused transaction is
    /// only a verdict.
    #[test]
    fn check_and_deliver_run_on_the_handed_tx_and_parse_nothing() {
        use xcc_sim::prof;
        let mut app = funded_app("chain-a", 1, 1_000_000);
        let tx0 = bank_send_tx(&app, "user-0", "relayer", 1, 0);
        let tx1 = bank_send_tx(&app, "user-0", "relayer", 1, 1);
        app.begin_block(&header_at(&app, 1, 5));

        prof::reset();
        assert!(app.check_tx(&tx0).is_ok());
        assert!(app.check_tx(&tx1).is_ok());
        let stale = app.check_tx(&tx0);
        assert_eq!(stale.code, ante::CODE_SEQUENCE_MISMATCH);
        assert!(app.deliver_tx(tx0).is_ok());
        assert!(app.deliver_tx(tx1).is_ok());
        let work = prof::snapshot();
        assert_eq!((work.txs_decoded, work.txs_encoded), (0, 0));
        assert_eq!(app.account_sequence(&"user-0".into()), 2);
    }

    #[test]
    fn commit_resets_check_state_and_changes_app_hash() {
        let mut app = funded_app("chain-a", 1, 1_000_000);
        let tx0 = bank_send_tx(&app, "user-0", "relayer", 1, 0);
        assert!(app.check_tx(&tx0).is_ok());
        // Check state is ahead of committed state now; commit resets it.
        app.begin_block(&header_at(&app, 1, 5));
        let h1 = app.commit();
        assert!(
            app.check_tx(&tx0).is_ok(),
            "after reset, sequence 0 is valid again in check state"
        );

        app.begin_block(&header_at(&app, 2, 10));
        app.deliver_tx(tx0);
        let h2 = app.commit();
        assert_ne!(h1, h2);
    }

    #[test]
    fn begin_block_updates_host_context() {
        let mut app = funded_app("chain-a", 1, 1_000);
        app.begin_block(&header_at(&app, 7, 35));
        assert_eq!(app.height(), 7);
        assert_eq!(app.block_time(), SimTime::from_secs(35));
        assert_eq!(app.host_context().height, Height::at(7));
    }
}

/// `DeliverTx` rollback equivalence: for every way a transaction can fail,
/// the journaled rollback must leave exactly the state that the
/// clone-and-restore it replaced left. The clone-based `DeliverTx` lives on
/// here, as the oracle.
#[cfg(test)]
mod rollback_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::chain::Chain;
    use crate::coin::Coin;
    use xcc_ibc::client::ClientUpdate;
    use xcc_ibc::commitment::CommitmentProof;
    use xcc_ibc::ids::{ChannelId, ClientId, ConnectionId, PortId, Sequence};
    use xcc_ibc::module::TransferParams;
    use xcc_ibc::packet::Packet;

    /// `DeliverTx` as it was before the journal: copy the three keepers, put the
    /// copies back when the fee or a message fails. Returns the result code.
    fn deliver_with_snapshot(app: &mut GaiaApp, tx: &Tx) -> u32 {
        let snapshot = (app.accounts.clone(), app.bank.clone(), app.ibc.clone());
        if let Err(err) = ante::ante_handle(&mut app.accounts, tx) {
            return err.code();
        }
        if app.pay_fee(tx).is_err() {
            (app.accounts, app.bank, app.ibc) = snapshot;
            return ante::CODE_INSUFFICIENT_FUNDS;
        }
        for msg in &tx.msgs {
            if app.execute_msg(msg).is_err() {
                (app.accounts, app.bank, app.ibc) = snapshot;
                let _ = ante::ante_handle(&mut app.accounts, tx);
                let _ = app.pay_fee(tx);
                return CODE_MSG_FAILED;
            }
        }
        0
    }

    /// Delivers `tx` to two copies of `app`, one through the journaled
    /// `DeliverTx` and one through the oracle, and checks that the copies end up
    /// indistinguishable: every keeper map, the commitment root, a membership
    /// proof and the application hash. Returns the result code.
    fn deliver_both_ways(
        app: &GaiaApp,
        tx: &Tx,
        proven: &dyn Fn(&GaiaApp) -> CommitmentProof,
    ) -> u32 {
        deliver_and_keep_both(app, tx, proven).0
    }

    /// [`deliver_both_ways`], returning the result code and the journaled and
    /// oracle copies after their `commit`.
    fn deliver_and_keep_both(
        app: &GaiaApp,
        tx: &Tx,
        proven: &dyn Fn(&GaiaApp) -> CommitmentProof,
    ) -> (u32, GaiaApp, GaiaApp) {
        let mut journaled = app.clone();
        let mut oracle = app.clone();
        // Build the tree memo first, so the rollback has a memo to invalidate.
        journaled.ibc.commitment_root();
        let result = journaled.deliver_tx(tx.clone());
        let code = deliver_with_snapshot(&mut oracle, tx);
        assert_eq!(result.code, code, "log: {}", result.log);
        assert_eq!(journaled.accounts, oracle.accounts);
        assert_eq!(journaled.bank, oracle.bank);
        assert_eq!(journaled.ibc, oracle.ibc);
        assert_eq!(
            journaled.ibc.commitment_root(),
            oracle.ibc.commitment_root()
        );
        assert_eq!(proven(&journaled), proven(&oracle));
        assert_eq!(journaled.commit(), oracle.commit());
        if code != 0 {
            // A failed transaction changes nothing IBC can prove.
            assert_eq!(journaled.ibc, app.ibc);
            assert_eq!(proven(&journaled), proven(app));
        }
        (code, journaled, oracle)
    }

    /// Two chains joined by one transfer channel, with four packets sent from A:
    /// the first two received on B (and provably acknowledged), the last two
    /// still in flight. Each chain's client of the other is one block behind, so
    /// a transaction must open with the `MsgUpdateClient` built here.
    struct Pair {
        a: Chain,
        b: Chain,
        chan_a: ChannelId,
        chan_b: ChannelId,
        packets: Vec<Packet>,
    }

    const USERS: usize = 4;

    fn genesis(chain_id: &str) -> GenesisConfig {
        GenesisConfig::new(chain_id)
            .with_account("relayer", 10_000_000)
            .with_account("pauper", 0)
            .with_funded_accounts("user", USERS, 10_000_000)
    }

    fn relayer_tx(chain: &Chain, msgs: Vec<Msg>) -> Tx {
        let sequence = chain.app().account_sequence(&"relayer".into());
        Tx::new("relayer".into(), sequence, msgs, "uatom")
    }

    fn transfer(channel: &ChannelId, sender: &str, amount: u128) -> Msg {
        Msg::IbcTransfer(TransferParams {
            source_port: PortId::transfer(),
            source_channel: channel.clone(),
            denom: "uatom".into(),
            amount,
            sender: sender.into(),
            receiver: "bob".into(),
            timeout_height: Height::at(1_000),
            timeout_timestamp: SimTime::ZERO,
        })
    }

    /// `MsgUpdateClient` carrying `of`'s latest block to its counterparty.
    fn update_client(of: &Chain) -> Msg {
        let latest = of.latest_block().expect("has blocks");
        let height = latest.block.header.height;
        Msg::IbcUpdateClient {
            client_id: ClientId::with_index(0),
            update: Box::new(ClientUpdate {
                header: latest.block.header.clone(),
                commit: of.commit_for(height).cloned().expect("committed"),
                validators: of.validators().clone(),
                ibc_root: of.app().ibc().commitment_root(),
            }),
            signer: "relayer".into(),
        }
    }

    impl Pair {
        fn new() -> Self {
            let mut a = Chain::new(genesis("chain-a"));
            let mut b = Chain::new(genesis("chain-b"));
            a.produce_block(SimTime::from_secs(5));
            b.produce_block(SimTime::from_secs(5));

            let header = |chain: &Chain| chain.block_at(1).expect("genesis").block.header.clone();
            let (header_a, header_b) = (header(&a), header(&b));
            let root_a = a.app().ibc().commitment_root();
            let root_b = b.app().ibc().commitment_root();
            let ibc_a = a.app_mut().ibc_mut();
            let ibc_b = b.app_mut().ibc_mut();
            let (client_on_a, _) = ibc_a.create_client(&header_b, root_b);
            let (client_on_b, _) = ibc_b.create_client(&header_a, root_a);
            let (conn_a, _) = ibc_a.conn_open_init(&client_on_a, &client_on_b).unwrap();
            let (conn_b, _) = ibc_b
                .conn_open_try(&client_on_b, &client_on_a, &conn_a)
                .unwrap();
            ibc_a.conn_open_ack(&conn_a, &conn_b).unwrap();
            ibc_b.conn_open_confirm(&conn_b).unwrap();
            let port = PortId::transfer();
            let (chan_a, _) = ibc_a.chan_open_init(&port, &conn_a, &port).unwrap();
            let (chan_b, _) = ibc_b.chan_open_try(&port, &conn_b, &port, &chan_a).unwrap();
            ibc_a.chan_open_ack(&port, &chan_a, &chan_b).unwrap();
            ibc_b.chan_open_confirm(&port, &chan_b).unwrap();

            // Block 2 on A: one transfer per user.
            for user in 0..USERS {
                let sender = format!("user-{user}");
                let tx = Tx::new(
                    sender.as_str().into(),
                    0,
                    vec![transfer(&chan_a, &sender, 100 + user as u128)],
                    "uatom",
                );
                a.submit_tx(tx, SimTime::from_secs(6)).unwrap();
            }
            a.produce_block(SimTime::from_secs(10));
            let packets: Vec<Packet> = (1..=USERS as u64)
                .map(|seq| {
                    let sent = a.app().ibc().sent_packet(&port, &chan_a, Sequence(seq));
                    Packet::clone(sent.expect("sent in block 2"))
                })
                .collect();

            let mut pair = Pair {
                a,
                b,
                chan_a,
                chan_b,
                packets,
            };
            // Block 2 on B: the first two packets arrive.
            let arrivals = vec![update_client(&pair.a), pair.recv(0), pair.recv(1)];
            let tx = relayer_tx(&pair.b, arrivals);
            pair.b.submit_tx(tx, SimTime::from_secs(11)).unwrap();
            pair.b.produce_block(SimTime::from_secs(15));
            assert!(pair
                .b
                .app()
                .ibc()
                .has_receipt(&port, &pair.chan_b, Sequence(2)));
            // Block 3 on A, so that B's client has a newer header to move to.
            pair.a.produce_block(SimTime::from_secs(15));
            pair
        }

        fn proof_height(of: &Chain) -> Height {
            Height::at(of.height())
        }

        /// `MsgRecvPacket` for `packets[index]`, proven at A's latest block.
        fn recv(&self, index: usize) -> Msg {
            self.recv_with_proof_of(index, index)
        }

        /// `MsgRecvPacket` for `packets[index]` carrying `packets[proven]`'s proof.
        fn recv_with_proof_of(&self, index: usize, proven: usize) -> Msg {
            let ibc = self.a.app().ibc();
            let sequence = self.packets[proven].sequence;
            Msg::IbcRecvPacket {
                packet: self.packets[index].clone(),
                proof_commitment: ibc
                    .prove_packet_commitment(&PortId::transfer(), &self.chan_a, sequence)
                    .expect("commitment exists"),
                proof_height: Self::proof_height(&self.a),
                signer: "relayer".into(),
            }
        }

        /// `MsgAcknowledgement` for `packets[index]`, proven at B's latest block.
        fn ack(&self, index: usize) -> Msg {
            let ibc = self.b.app().ibc();
            let (port, sequence) = (PortId::transfer(), self.packets[index].sequence);
            let written = ibc.packet_acknowledgement(&port, &self.chan_b, sequence);
            Msg::IbcAcknowledgement {
                packet: self.packets[index].clone(),
                acknowledgement: written.expect("received on B").clone(),
                proof_acked: ibc
                    .prove_packet_acknowledgement(&port, &self.chan_b, sequence)
                    .expect("acknowledgement exists"),
                proof_height: Self::proof_height(&self.b),
                signer: "relayer".into(),
            }
        }

        /// `MsgTimeout` for `packets[index]`, which has not timed out.
        fn premature_timeout(&self, index: usize) -> Msg {
            let ibc = self.b.app().ibc();
            let sequence = self.packets[index].sequence;
            Msg::IbcTimeout {
                packet: self.packets[index].clone(),
                proof_unreceived: ibc
                    .prove_packet_non_receipt(&PortId::transfer(), &self.chan_b, sequence)
                    .expect("not received"),
                proof_height: Self::proof_height(&self.b),
                signer: "relayer".into(),
            }
        }

        /// A's proof of the in-flight fourth packet's commitment.
        fn proven_on_a(&self) -> impl Fn(&GaiaApp) -> CommitmentProof + '_ {
            |app| {
                app.ibc
                    .prove_packet_commitment(&PortId::transfer(), &self.chan_a, Sequence(4))
                    .expect("packet 4 is never acknowledged")
            }
        }

        /// B's proof of the first packet's acknowledgement.
        fn proven_on_b(&self) -> impl Fn(&GaiaApp) -> CommitmentProof + '_ {
            |app| {
                app.ibc
                    .prove_packet_acknowledgement(&PortId::transfer(), &self.chan_b, Sequence(1))
                    .expect("packet 1 was received in block 2")
            }
        }
    }

    #[test]
    fn ante_failure_and_unfunded_fee_payer_leave_what_the_snapshot_left() {
        let pair = Pair::new();
        let send = |from: &str, sequence: u64| {
            let msg = Msg::BankSend {
                from: from.into(),
                to: "relayer".into(),
                amount: Coin::new("uatom", 1),
            };
            Tx::new(from.into(), sequence, vec![msg], "uatom")
        };
        let app = pair.a.app();
        let proven = pair.proven_on_a();
        // user-0 is at sequence 1 after its transfer.
        let stale = deliver_both_ways(app, &send("user-0", 0), &proven);
        assert_eq!(stale, ante::CODE_SEQUENCE_MISMATCH);
        let unknown = deliver_both_ways(app, &send("nobody", 0), &proven);
        assert_eq!(unknown, ante::CODE_UNKNOWN_ACCOUNT);
        // The ante passes and bumps the sequence; the fee then bounces.
        let unfunded = deliver_both_ways(app, &send("pauper", 0), &proven);
        assert_eq!(unfunded, ante::CODE_INSUFFICIENT_FUNDS);
        assert_eq!(deliver_both_ways(app, &send("user-0", 1), &proven), 0);
    }

    #[test]
    fn a_failing_message_after_successful_ones_leaves_what_the_snapshot_left() {
        let pair = Pair::new();
        let (a, b) = (pair.a.app(), pair.b.app());

        // On B: a client update and a fresh receive (voucher minted, receipt and
        // acknowledgement written), then the failure.
        let redundant_recv = vec![update_client(&pair.a), pair.recv(2), pair.recv(0)];
        let bad_proof = vec![
            update_client(&pair.a),
            pair.recv(2),
            pair.recv_with_proof_of(3, 2),
        ];
        // Within one transaction, too: the receipt the first copy wrote is what
        // fails the second.
        let twice = vec![update_client(&pair.a), pair.recv(2), pair.recv(2)];
        for msgs in [redundant_recv, bad_proof, twice] {
            let code = deliver_both_ways(b, &relayer_tx(&pair.b, msgs), &pair.proven_on_b());
            assert_eq!(code, CODE_MSG_FAILED);
        }

        // On A: a client update and an acknowledgement (commitment deleted),
        // then the failure.
        let redundant_ack = vec![update_client(&pair.b), pair.ack(0), pair.ack(0)];
        let unexpired_timeout = vec![
            update_client(&pair.b),
            pair.ack(0),
            pair.ack(1),
            pair.premature_timeout(2),
        ];
        for msgs in [redundant_ack, unexpired_timeout] {
            let code = deliver_both_ways(a, &relayer_tx(&pair.a, msgs), &pair.proven_on_a());
            assert_eq!(code, CODE_MSG_FAILED);
        }

        // The same batches without their last message succeed — the failures
        // above really came after k successful messages.
        let receives = vec![update_client(&pair.a), pair.recv(2), pair.recv(3)];
        let code = deliver_both_ways(b, &relayer_tx(&pair.b, receives), &pair.proven_on_b());
        assert_eq!(code, 0);
        let acks = vec![update_client(&pair.b), pair.ack(0), pair.ack(1)];
        let code = deliver_both_ways(a, &relayer_tx(&pair.a, acks), &pair.proven_on_a());
        assert_eq!(code, 0);
    }

    /// What channel end `channel` of chain A's `app` says about its sends:
    /// the next sequence to send, every sequence sent, and the packet under
    /// each sequence from 0 to one past the next.
    fn sends_on(
        app: &GaiaApp,
        channel: &ChannelId,
    ) -> (Sequence, Vec<Sequence>, Vec<Option<Packet>>) {
        let (ibc, port) = (app.ibc(), PortId::transfer());
        let next = ibc
            .channel(&port, channel)
            .expect("open")
            .next_sequence_send;
        let packets = (0..=next.value() + 1)
            .map(|seq| {
                ibc.sent_packet(&port, channel, Sequence(seq))
                    .map(Rc::as_ref)
                    .cloned()
            })
            .collect();
        (next, ibc.sent_sequences(&port, channel), packets)
    }

    /// Sends over two channel ends in one transaction, which the journaled
    /// `DeliverTx` records as sequence bumps and log appends and writes each
    /// end's store leaf for once, at commit. A later failing message must
    /// leave both ends as they were; without it, both ends must hold what the
    /// oracle's message-by-message writes left. The leaves are compared
    /// entry by entry with the rest of the store (`ibc` equality), then
    /// through the root and `commit()`.
    #[test]
    fn sends_over_two_channels_roll_back_and_commit_like_the_snapshot() {
        let mut pair = Pair::new();
        let port = PortId::transfer();
        let connection = ConnectionId::with_index(0);
        let (ibc_a, ibc_b) = (pair.a.app_mut().ibc_mut(), pair.b.app_mut().ibc_mut());
        let (second, _) = ibc_a.chan_open_init(&port, &connection, &port).unwrap();
        let (second_b, _) = ibc_b
            .chan_open_try(&port, &connection, &port, &second)
            .unwrap();
        ibc_a.chan_open_ack(&port, &second, &second_b).unwrap();
        ibc_b.chan_open_confirm(&port, &second_b).unwrap();
        let channels = [pair.chan_a.clone(), second];

        let app = pair.a.app();
        let before: Vec<_> = channels.iter().map(|c| sends_on(app, c)).collect();
        let sends: Vec<Msg> = (0..3)
            .flat_map(|i| channels.iter().map(move |c| transfer(c, "relayer", 10 + i)))
            .collect();
        let mut failing = sends.clone();
        failing.push(Msg::BankSend {
            from: "relayer".into(),
            to: "user-0".into(),
            amount: Coin::new("uatom", u128::MAX),
        });
        for (msgs, expected) in [(failing, CODE_MSG_FAILED), (sends, 0)] {
            let tx = relayer_tx(&pair.a, msgs);
            let (code, journaled, oracle) = deliver_and_keep_both(app, &tx, &pair.proven_on_a());
            assert_eq!(code, expected);
            for (channel, before) in channels.iter().zip(&before) {
                let after = sends_on(&journaled, channel);
                assert_eq!(after, sends_on(&oracle, channel));
                if code == 0 {
                    assert_eq!(after.0.value(), before.0.value() + 3);
                    assert_eq!(after.1.len(), before.1.len() + 3);
                } else {
                    assert_eq!(&after, before);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A random batch of valid messages on B — bank sends, outgoing
        /// transfers, receives of the two in-flight packets — with one failing
        /// message injected at a random position (or none, when the position
        /// falls past the end).
        #[test]
        fn random_batches_with_one_injected_failure_roll_back_like_the_snapshot(
            picks in prop::collection::vec(0usize..4, 1..8),
            position in any::<prop::sample::Index>(),
            failure in 0usize..4,
        ) {
            let pair = Pair::new();
            let mut unreceived = vec![3, 2];
            let mut msgs = vec![update_client(&pair.a)];
            for (i, pick) in picks.iter().enumerate() {
                msgs.push(match (pick, unreceived.pop()) {
                    (0 | 1, Some(index)) => pair.recv(index),
                    (2, _) => transfer(&pair.chan_b, "relayer", 10 + i as u128),
                    _ => Msg::BankSend {
                        from: "relayer".into(),
                        to: format!("fresh-{i}").as_str().into(),
                        amount: Coin::new("uatom", 1 + i as u128),
                    },
                });
            }
            let valid = msgs.len();
            let at = 1 + position.index(valid);
            let injected = at < valid;
            if injected {
                msgs.insert(at, match failure {
                    0 => pair.recv(0),
                    1 => pair.recv_with_proof_of(3, 2),
                    2 => transfer(&ChannelId::with_index(9), "relayer", 1),
                    _ => Msg::BankSend {
                        from: "relayer".into(),
                        to: "user-0".into(),
                        amount: Coin::new("uatom", u128::MAX),
                    },
                });
            }
            let code = deliver_both_ways(pair.b.app(), &relayer_tx(&pair.b, msgs), &pair.proven_on_b());
            prop_assert_eq!(code, if injected { CODE_MSG_FAILED } else { 0 });
        }
    }
}
