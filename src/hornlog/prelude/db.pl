% A dynamic clause store served by an engine: an infinite difference-list
% queue loop whose arguments carry the store state across requests.

queue_server:-queue_server(Xs,Xs).

queue_server(Hs1,Ts1):-
  from_engine(Q),
    server_task(Q,Hs1,Ts1,Hs2,Ts2,A),
  return(A),
  queue_server(Hs2,Ts2).

server_task(add_element(X),Xs,[X|Ys],Xs,Ys,yes).
server_task(push_element(X),Xs,Ys,[X|Xs],Ys,yes).
server_task(queue,Xs,Ys,Xs,Ys,Xs-Ys).
server_task(delete_element(X),Xs,Ys,NewXs,Ys,YesNo):-
  server_task_delete(X,Xs,NewXs,YesNo).

server_task_delete(X,Xs,NewXs,YesNo):-select_nonvar(X,Xs,NewXs),!,
  YesNo=yes(X).
server_task_delete(_,Xs,Xs,no).

select_nonvar(X,XXs,Xs):-nonvar(XXs),XXs=[X|Xs].
select_nonvar(X,YXs,[Y|Ys]):-nonvar(YXs),YXs=[Y|Xs],
  select_nonvar(X,Xs,Ys).

new_edb(Engine):-new_engine(done,queue_server,Engine).

edb_assertz(Engine,Clause):-
  ask_engine(Engine,add_element(Clause),the(yes)).

edb_asserta(Engine,Clause):-
  ask_engine(Engine,push_element(Clause),the(yes)).

edb_clause(Engine,Head,Body):-
  ask_engine(Engine,queue,the(Xs-[])),
  member((Head:-Body),Xs).

% Removing an absent head fails softly: the server's yes/no answer is
% accepted either way and matched afterwards, so the server stays alive.

edb_retract1(Engine,Head):-Clause=(Head:-_Body),
  ask_engine(Engine,delete_element(Clause),the(YesNo)),
  YesNo=yes(Clause).

edb_delete(Engine):-stop(Engine).

test_clause(Head,Body):-
  new_edb(Db),
    edb_assertz(Db,(a(2):-true)),
    edb_asserta(Db,(a(1):-true)),
    edb_assertz(Db,(b(X):-a(X))),
  edb_clause(Db,Head,Body).
