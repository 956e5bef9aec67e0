-- Shell transcript fixture: piped into datacell_shell by the
-- shell_transcript ctests and diffed against transcript*.golden.
create basket s (k int, v int);
create table dims (k int, name varchar);
insert into dims values (1, 'one'), (2, 'two');
\watch big select k, v from [select * from s] as t where t.v > 10;
\watch named select t.k, d.name, t.v from [select * from s] as t join dims as d on t.k = d.k;
\watch g select count(*) as c, sum(v) as total from [select * from s] as t;
\watch u select * from [select * from g_out] as x;
insert into s values (1, 5), (2, 20), (3, 30);
select k, name from dims where k > 1;
\explain big
\explain select k from dims where k > 1;
\analyze
\profile on
insert into s values (2, 40);
\profile big
\quit
